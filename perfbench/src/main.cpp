// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-rev <rev>]
//
// Prints run metadata, human-readable detail, one line per metric, and as
// the last line a JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to --trace-out. Exits 0 when
// every check passed, 1 when any failed, 2 on a usage or set-up error.
// run.py builds this binary and is the supported way to run it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "flows.h"
#include "obs/json.h"

using essent::obs::Json;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string traceOut, gitRev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--git-rev <rev>]\n"
               "workloads:",
               why.c_str());
  for (const auto& w : benchmarkWorkloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace") a.trace = v == "0" ? 0 : v == "1" ? 1 : -2;
    else if (k == "--trace-out") a.traceOut = v;
    else if (k == "--git-rev") a.gitRev = v;
    else usage("unknown argument " + k);
    if (end && *end) usage("bad number for " + k + ": " + v);
  }
  if (a.workload.empty() || a.trace < 0 || !(a.seconds > 0))
    usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
  return a;
}

std::string firstLineOf(const char* cmd) {
  std::string line;
  if (FILE* p = popen(cmd, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p)) line = buf;
    pclose(p);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line.empty() ? "unknown" : line;
}

std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

Json metadata(const Args& a) {
  Json m = Json::object();
  m["workload"] = a.workload;
  m["seed"] = static_cast<unsigned long long>(a.seed);
  m["seconds"] = a.seconds;
  m["trace"] = a.trace;
  m["nproc"] = static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN));
  m["cpu_model"] = cpuModel();
  m["git_rev"] = a.gitRev;
  m["build_type"] = PB_BUILD_TYPE;
  m["lib_compiler"] = PB_CXX_ID;
  m["lib_flags"] = PB_LIB_FLAGS;
  m["gen_compiler"] = firstLineOf("c++ --version 2>/dev/null");
  std::string flags;
  for (const auto& f : hostCompileFlags()) flags += (flags.empty() ? "" : " ") + f;
  m["gen_flags"] = flags;
  return m;
}

void writeTrace(const std::string& path, const Json& meta, const SpanRecorder& rec) {
  Json doc = Json::object();
  doc["meta"] = meta;
  Json spans = Json::array();
  const auto self = selfTimes(rec.spans());
  for (size_t i = 0; i < rec.spans().size(); i++) {
    const Span& s = rec.spans()[i];
    Json j = Json::object();
    j["name"] = s.name;
    j["parent"] = s.parent;
    j["start_s"] = s.start;
    j["end_s"] = s.end;
    j["self_s"] = self[i];
    spans.push(std::move(j));
  }
  doc["spans"] = std::move(spans);
  essent::obs::writeJsonFile(path, doc);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const WorkloadSpec* spec = findWorkload(args.workload);
  if (!spec) usage("unknown workload " + args.workload);

  const Json meta = metadata(args);
  std::printf("perfbench %s seed=%llu trace=%d\nmeta %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace, meta.dump(0).c_str());
  if (std::string(PB_BUILD_TYPE) != "Release")
    std::printf("WARNING: library built as '%s', not Release: timings are not comparable\n",
                PB_BUILD_TYPE);
  std::fflush(stdout);

  RunReport rep;
  try {
    if (args.trace) {
      SpanRecorder rec;
      rep = runTraced(*spec, args.seed, args.seconds, rec);
      if (!args.traceOut.empty()) {
        writeTrace(args.traceOut, meta, rec);
        std::printf("spans: %zu written to %s\n", rec.spans().size(), args.traceOut.c_str());
      }
    } else {
      rep = runUntraced(*spec, args.seed, args.seconds);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const auto& n : rep.notes) std::printf("%s\n", n.c_str());
  for (const auto& m : rep.metrics)
    std::printf("  %-46s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& e : rep.errors) std::printf("FAIL: %s\n", e.c_str());
  std::printf("executions: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  Json result = Json::object();
  result["correct"] = rep.correct();
  result["attempted"] = static_cast<unsigned long long>(rep.attempted);
  result["failed"] = static_cast<unsigned long long>(rep.failed);
  Json metrics = Json::object();
  for (const auto& m : rep.metrics) {
    Json v = Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump(0).c_str());
  return rep.correct() ? 0 : 1;
}
