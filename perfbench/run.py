#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
perfbench binary and the essent libraries it measures (Release) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr. The binary's output is
passed through: its last line is the JSON result, whose metric names are
checked against BENCHMARK.json. Temporary files (the generated simulator,
its compile) and trace files stay inside the build directory.

Exit status: the binary's (0 all checks passed, 1 a check failed, 2 set-up
error); 1 if the metric names disagree with BENCHMARK.json or the binary
overruns its time limit; 2 if the build fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BINARY_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) next to perfbench/; "
             "run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def child_env():
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_binary(cmd):
    """Runs the binary in its own process group; kills the group on overrun."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench overran {BINARY_TIMEOUT_S} s and was killed", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def check_metric_names(out, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = out.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    if got != want:
        fail(f"metrics disagree with BENCHMARK.json: missing {sorted(want - got)}, "
             f"unexpected {sorted(got - want)}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests], env=child_env()).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, out = run_binary(cmd)
    if code == 0:
        check_metric_names(out, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
