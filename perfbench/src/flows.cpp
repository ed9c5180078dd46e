#include "flows.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/netlist.h"
#include "core/partitioner.h"
#include "core/schedule.h"
#include "firrtl/passes.h"
#include "sim/compile.h"
#include "sim/engine_factory.h"
#include "stats.h"
#include "support/strutil.h"
#include "support/tempdir.h"
#include "workloads/driver.h"

namespace perfbench {

using essent::strfmt;
using essent::sim::Engine;
using Clock = std::chrono::steady_clock;

namespace {

double now() { return std::chrono::duration<double>(Clock::now().time_since_epoch()).count(); }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Result accounting.

void record(RunReport& rep, const Observed& got, const Expected& want, const char* where) {
  rep.attempted++;
  const std::string m = mismatch(got, want);
  if (m.empty()) return;
  rep.failed++;
  if (rep.errors.size() < 20) rep.errors.push_back(std::string(where) + ": " + m);
}

void addMetric(RunReport& rep, std::string name, double value, std::string unit) {
  rep.metrics.push_back({std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------
// In-process execution.

// One program execution: its result, engine counters (in process only),
// host time and the host time of every full block of simulated cycles.
struct Execution {
  Observed obs;
  essent::sim::EngineStats stats;
  double loadSeconds = 0;
  double tickSeconds = 0;  // reset cycles included
  std::vector<double> blocksUs;
};

// Loads the program into a freshly reset engine and runs it to the stop,
// timing every full block of `blockCycles` post-reset cycles.
Execution execute(Engine& eng, const essent::workloads::Program& prog, uint32_t blockCycles,
                  uint64_t maxCycles, SpanRecorder* rec) {
  Execution ex;
  const double t0 = now();
  {
    SpanScope s(rec, "workloads.load");
    essent::workloads::loadProgram(eng, prog);
  }
  const double t1 = now();
  {
    SpanScope s(rec, "core.activity_engine.tick");
    eng.poke("reset", 1);
    eng.tick();
    eng.tick();
    eng.poke("reset", 0);
  }
  while (!eng.stopped() && ex.obs.cycles < maxCycles) {
    SpanScope s(rec, "core.activity_engine.tick");
    const auto b0 = Clock::now();
    uint32_t n = 0;
    for (; n < blockCycles && !eng.stopped(); n++) eng.tick();
    ex.obs.cycles += n;
    if (n == blockCycles)
      ex.blocksUs.push_back(std::chrono::duration<double, std::micro>(Clock::now() - b0).count());
  }
  ex.tickSeconds = now() - t1;
  ex.loadSeconds = t1 - t0;
  SpanScope s(rec, "workloads.check");
  ex.obs.halted = eng.stopped();
  ex.obs.instret = eng.peek("instret");
  ex.obs.checksum = static_cast<uint16_t>(eng.peekMem("dmem", 21));
  ex.stats = eng.stats();
  return ex;
}

// ---------------------------------------------------------------------------
// The compiled flow: emitted C++ plus a harness main, the host compiler, and
// the generated simulator as a child process.

struct ChildRun {
  bool ok = false;
  std::string detail;
  double seconds = 0;
  double maxRssMb = 0;  // largest peak RSS of one process in the command's tree
};

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Runs argv under perfbench_rss, which measures the command's peak RSS apart
// from this process's, in its own process group with stdout+stderr in
// `outPath`; on timeout the whole group is killed. Always reaps the child.
ChildRun runChild(const std::vector<std::string>& argv, const std::string& outPath,
                  double timeoutS) {
  ChildRun r;
  const std::string rssPath = outPath + ".rss";
  std::vector<std::string> full = {PB_RSS_HELPER, rssPath};
  full.insert(full.end(), argv.begin(), argv.end());
  std::vector<char*> args;
  for (const auto& a : full) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const double t0 = now();
  const pid_t pid = fork();
  if (pid < 0) {
    r.detail = std::string("fork failed: ") + std::strerror(errno);
    return r;
  }
  if (pid == 0) {
    setpgid(0, 0);
    const int fd = open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(126);
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
    execv(args[0], args.data());
    _exit(127);
  }
  setpgid(pid, pid);
  int status = 0;
  for (;;) {
    const pid_t w = waitpid(pid, &status, WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) {
      r.detail = std::string("waitpid failed: ") + std::strerror(errno);
      return r;
    }
    if (now() - t0 > timeoutS) {
      kill(-pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      r.detail = strfmt("%s timed out after %.0f s", argv[0].c_str(), timeoutS);
      return r;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.seconds = now() - t0;
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!r.ok) {
    r.detail = WIFEXITED(status) ? strfmt("%s exited %d", argv[0].c_str(), WEXITSTATUS(status))
                                 : strfmt("%s killed by signal %d", argv[0].c_str(),
                                          WTERMSIG(status));
    return r;
  }
  r.maxRssMb = std::strtod(readFile(rssPath).c_str(), nullptr) / 1024.0;
  if (!(r.maxRssMb > 0)) {
    r.ok = false;
    r.detail = "no peak RSS in " + rssPath;
  }
  return r;
}

// Runs the program for `seconds` (at least once), each execution on a
// freshly constructed simulator; prints one line per execution with its
// result, its host time (reset included) and its full-block timings.
std::string harnessMain(const essent::workloads::Program& prog) {
  std::string s = "\n#include <chrono>\n#include <cstdio>\n#include <cstdlib>\n"
                  "#include <memory>\n#include <vector>\n";
  s += "static const unsigned short prog_code[] = {";
  for (size_t i = 0; i < prog.code.size(); i++) s += (i ? "," : "") + std::to_string(prog.code[i]);
  s += "};\nstatic const unsigned short prog_data[][2] = {{0, 0}";
  for (auto [a, v] : prog.data) s += strfmt(", {%u, %u}", a, v);
  s += R"(};
int main(int argc, char** argv) {
  if (argc != 4) return 2;
  const double seconds = std::atof(argv[1]);
  const unsigned long long block = std::strtoull(argv[2], nullptr, 10);
  const unsigned long long maxCycles = std::strtoull(argv[3], nullptr, 10);
  using clk = std::chrono::steady_clock;
  std::vector<long long> blocks;
  const auto t0 = clk::now();
  do {
    auto sim = std::make_unique<essent_gen::Simulator>();
    for (unsigned i = 0; i < sizeof prog_code / sizeof prog_code[0]; i++)
      sim->mem_imem[i] = prog_code[i];
    for (const auto& dv : prog_data) sim->mem_dmem[dv[0]] = dv[1];
    blocks.clear();
    const auto e0 = clk::now();
    sim->reset = 1;
    sim->eval();
    sim->eval();
    sim->reset = 0;
    unsigned long long cycles = 0;
    while (!sim->stopped_ && cycles < maxCycles) {
      const auto b0 = clk::now();
      unsigned long long n = 0;
      for (; n < block && !sim->stopped_; n++) sim->eval();
      cycles += n;
      if (n == block)
        blocks.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() - b0).count());
    }
    const double secs = std::chrono::duration<double>(clk::now() - e0).count();
    std::printf("exec halted=%d cycles=%llu instret=%llu result=%llu seconds=%.9f blocks_ns=%zu",
                sim->stopped_ ? 1 : 0, cycles, (unsigned long long)sim->instret,
                (unsigned long long)sim->mem_dmem[21], secs, blocks.size());
    for (long long b : blocks) std::printf(" %lld", b);
    std::printf("\n");
  } while (std::chrono::duration<double>(clk::now() - t0).count() < seconds);
  return 0;
}
)";
  return s;
}

struct CompiledSim {
  essent::support::TempDir dir{"perfbench_XXXXXX"};
  std::string code;  // emitCpp's output alone, without the harness
  double emitSeconds = 0;
  ChildRun compile;
  std::string binary() const { return dir.file("sim"); }
};

// CCSS C++ with branch hints and mux-way shadowing: codegen's defaults.
std::string emitSimulator(const Engine& eng) {
  const auto& act = dynamic_cast<const essent::core::ActivityEngine&>(eng);
  return essent::codegen::emitCpp(eng.ir(), &act.schedule(), essent::codegen::CodegenOptions{});
}

std::unique_ptr<CompiledSim> buildCompiledSim(const Engine& eng, const BenchProgram& bp,
                                              SpanRecorder* rec) {
  auto cs = std::make_unique<CompiledSim>();
  {
    SpanScope s(rec, "codegen.emit");
    const double t0 = now();
    cs->code = emitSimulator(eng);
    cs->emitSeconds = now() - t0;
  }
  const std::string src = cs->dir.file("sim.cpp");
  {
    std::ofstream f(src);
    f << cs->code << harnessMain(bp.program);
    if (!f) throw std::runtime_error("cannot write " + src);
  }
  SpanScope s(rec, "cc.compile");
  std::vector<std::string> argv = {"c++"};
  for (const auto& flag : hostCompileFlags()) argv.push_back(flag);
  argv.insert(argv.end(), {"-o", cs->binary(), src});
  cs->compile = runChild(argv, cs->dir.file("cc.log"), 150);
  if (!cs->compile.ok)
    throw std::runtime_error("host compile failed (" + cs->compile.detail +
                             "):\n" + readFile(cs->dir.file("cc.log")).substr(0, 4000));
  return cs;
}

struct GenOutput {
  std::vector<Execution> execs;
  ChildRun run;
};

GenOutput runGen(const CompiledSim& cs, double seconds, uint32_t blockCycles, uint64_t maxCycles) {
  GenOutput g;
  const std::string out = cs.dir.file("gen.out");
  g.run = runChild({cs.binary(), strfmt("%.6f", seconds), std::to_string(blockCycles),
                    std::to_string(maxCycles)},
                   out, seconds + 60);
  if (!g.run.ok) throw std::runtime_error("generated simulator failed: " + g.run.detail);
  std::ifstream f(out);
  std::string line;
  while (std::getline(f, line)) {
    unsigned long long cyc = 0, instret = 0, result = 0;
    int halted = 0, used = 0;
    size_t n = 0;
    Execution t;
    if (std::sscanf(line.c_str(),
                    "exec halted=%d cycles=%llu instret=%llu result=%llu seconds=%lf "
                    "blocks_ns=%zu%n",
                    &halted, &cyc, &instret, &result, &t.tickSeconds, &n, &used) != 6)
      continue;  // the design's own printf output
    t.obs = {halted != 0, cyc, instret, static_cast<uint16_t>(result)};
    std::istringstream is(line.substr(static_cast<size_t>(used)));
    long long ns = 0;
    while (is >> ns) t.blocksUs.push_back(static_cast<double>(ns) / 1e3);
    if (t.blocksUs.size() != n) throw std::runtime_error("truncated block list in " + out);
    g.execs.push_back(std::move(t));
  }
  if (g.execs.empty()) throw std::runtime_error("generated simulator printed no result: " + out);
  return g;
}

// The largest share of the traced wall time that may lie outside every
// layer's span.
constexpr double kMaxUnattributed = 0.05;

uint64_t maxCyclesFor(const Expected& want) { return 2 * want.cycles + 1000; }

double counterRate(uint64_t count, uint64_t cycles) {
  return cycles ? static_cast<double>(count) / static_cast<double>(cycles) : 0.0;
}

void compareCounter(RunReport& rep, const char* name, uint64_t product, uint64_t traced) {
  if (product != traced)
    rep.errors.push_back(strfmt("traced path disagrees with compileDesign+makeEngine on %s: "
                                "%llu vs %llu",
                                name, static_cast<unsigned long long>(traced),
                                static_cast<unsigned long long>(product)));
}

// Simulation speed and block times of a run's timed executions, which all do
// the same work. Other tenants of a shared host slow this process down for
// seconds at a time; that is not the simulator's cost, so both come from the
// fastest quarter of the executions.
struct Throughput {
  double khz = 0;
  size_t used = 0;
  BlockSummary blocks;
};

Throughput fastestQuarter(std::vector<const Execution*> execs) {
  std::sort(execs.begin(), execs.end(), [](const Execution* a, const Execution* b) {
    return a->tickSeconds < b->tickSeconds;
  });
  Throughput t;
  t.used = (execs.size() + 3) / 4;
  uint64_t cycles = 0;
  double seconds = 0;
  std::vector<double> blocksUs;
  for (size_t i = 0; i < t.used; i++) {
    cycles += execs[i]->obs.cycles;
    seconds += execs[i]->tickSeconds;
    blocksUs.insert(blocksUs.end(), execs[i]->blocksUs.begin(), execs[i]->blocksUs.end());
  }
  t.khz = seconds > 0 ? static_cast<double>(cycles) / seconds / 1e3 : 0.0;
  t.blocks = summarizeBlocks(blocksUs);
  if (!t.blocks.p99Valid())
    throw std::runtime_error(strfmt("only %zu blocks in the fastest executions: p99 needs %zu "
                                    "beyond it; run longer",
                                    t.blocks.count, kMinBeyond));
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<WorkloadSpec>& benchmarkWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec dhry;
    dhry.name = "boom_dhrystone";
    dhry.blockCycles = 32;  // >= 1000 blocks in the fastest quarter of executions
    dhry.soc = essent::designs::socBoom();
    dhry.program = ProgramKind::Dhrystone;
    dhry.size = 512;  // ~10.4k cycles per execution
    v.push_back(dhry);

    WorkloadSpec pchase = dhry;
    pchase.name = "boom_pchase";
    pchase.program = ProgramKind::Pchase;
    pchase.size = 256;  // list words
    pchase.laps = 16;   // ~24.6k cycles per execution
    v.push_back(pchase);

    WorkloadSpec comp;
    comp.name = "compiled_midsoc_dhrystone";
    comp.soc = essent::designs::socTiny();  // the midsoc config of bench_codegen_compiled
    comp.soc.name = "midsoc";
    comp.soc.numAccels = 8;
    comp.soc.accelLanes = 32;
    comp.soc.dmemDepth = 1024;
    comp.program = ProgramKind::Dhrystone;
    comp.size = 16384;  // ~298k cycles per execution
    comp.compiled = true;
    comp.blockCycles = 4096;
    comp.rounds = 5;  // each set-up is a host compile of 8-15 s
    v.push_back(comp);
    return v;
  }();
  return specs;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& s : benchmarkWorkloads())
    if (s.name == name) return &s;
  return nullptr;
}

BenchProgram makeProgram(const WorkloadSpec& spec, uint64_t seed) {
  return spec.program == ProgramKind::Dhrystone ? seededDhrystone(spec.size, seed)
                                                : seededPchase(spec.size, spec.laps, seed);
}

const std::vector<std::string>& hostCompileFlags() {
  static const std::vector<std::string> flags = {"-std=c++20", "-O2"};
  return flags;
}

const Metric* RunReport::find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

// ---------------------------------------------------------------------------

RunReport runUntraced(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  RunReport rep;
  const std::string text = essent::designs::tinySoCFirrtl(spec.soc);
  const BenchProgram bp = makeProgram(spec, seed);
  const Expected want = expectedResult(bp, spec.soc.memLatency);
  const uint64_t maxCycles = maxCyclesFor(want);

  // Rounds of: set up, then run to the first checked result; repeated for
  // `seconds`, and at least spec.rounds times. Host time per simulated
  // cycle swings by up to 1.6x between runs on a shared host, so simulation
  // speed and block times are per-layer metrics of the traced run, not
  // gated end-to-end ones (README.md, "Measuring on a shared host").
  std::vector<double> setupS, wallS, khz;
  double rssMb = 0;
  std::unique_ptr<Engine> eng;
  std::string firstCode;
  Observed compiledObs;
  const double start = now();
  for (int k = 0; k < spec.rounds || now() - start < seconds; k++) {
    eng.reset();  // free the previous set-up first: peak RSS is one set-up's
    const double t0 = now();
    eng = essent::sim::makeEngine(essent::sim::EngineKind::Ccss,
                                  essent::sim::compileDesign(text));
    std::unique_ptr<CompiledSim> cs;
    if (spec.compiled) cs = buildCompiledSim(*eng, bp, nullptr);
    const double t1 = now();
    Execution ex;
    if (spec.compiled) {
      GenOutput g = runGen(*cs, 0, spec.blockCycles, maxCycles);
      ex = std::move(g.execs.at(0));
      rssMb = std::max(rssMb, g.run.maxRssMb);
    } else {
      ex = execute(*eng, bp.program, spec.blockCycles, maxCycles, nullptr);
    }
    record(rep, ex.obs, want, "execution");
    wallS.push_back(now() - t0);
    setupS.push_back(t1 - t0);
    khz.push_back(static_cast<double>(ex.obs.cycles) / ex.tickSeconds / 1e3);
    if (spec.compiled) {
      if (k == 0) firstCode = cs->code;
      else if (cs->code != firstCode) rep.errors.push_back("emitCpp output differs between set-ups");
      compiledObs = ex.obs;
    }
  }
  if (spec.compiled) {
    // The in-process engine must agree with the compiled simulator.
    const Observed in = execute(*eng, bp.program, spec.blockCycles, maxCycles, nullptr).obs;
    record(rep, in, want, "in-process execution");
    if (in.checksum != compiledObs.checksum)
      rep.errors.push_back(strfmt("compiled checksum 0x%04x != in-process 0x%04x",
                                  compiledObs.checksum, in.checksum));
  } else {
    rssMb = peakRssMb();
  }

  addMetric(rep, "setup_s", median(setupS), "s");
  addMetric(rep, "peak_rss_mb", rssMb, "MB");
  addMetric(rep, "pass_frac",
            static_cast<double>(rep.attempted - rep.failed) / static_cast<double>(rep.attempted),
            "ratio");
  rep.notes.push_back(strfmt("rounds: %zu; median wall (FIRRTL text to checked result) %.3f s; "
                             "median simulation speed %.2f kHz",
                             setupS.size(), median(wallS), median(khz)));
  return rep;
}

// ---------------------------------------------------------------------------

namespace {

// The flow called one layer at a time, up to the first checked result.
struct StepPath {
  std::shared_ptr<const essent::sim::CompiledDesign> design;
  essent::core::Netlist nl;
  essent::core::Partitioning parts;
  std::unique_ptr<essent::core::ActivityEngine> eng;
  std::unique_ptr<CompiledSim> cs;
  double genExecSeconds = 0;
  double wall = 0;  // FIRRTL text to the first checked result
  std::vector<Execution> execs;
};

StepPath runStepPath(const WorkloadSpec& spec, const std::string& text, const BenchProgram& bp,
                     const Expected& want, RunReport& rep, SpanRecorder* rec) {
  namespace core = essent::core;
  namespace sim = essent::sim;
  StepPath sp;
  const uint64_t maxCycles = maxCyclesFor(want);
  const double start = now();
  {
    std::unique_ptr<essent::firrtl::Circuit> circuit;
    std::unique_ptr<essent::firrtl::Module> lowered;
    sim::SimIR ir;
    {
      SpanScope s(rec, "firrtl.parse");
      circuit = essent::firrtl::parseCircuit(text);
    }
    {
      SpanScope s(rec, "firrtl.lower");
      lowered = essent::firrtl::lowerCircuit(*circuit);
    }
    {
      SpanScope s(rec, "sim.build_ir");
      ir = sim::buildSimIR(*lowered, {});
    }
    {
      SpanScope s(rec, "sim.compiled_design");
      sp.design = sim::CompiledDesign::compile(std::move(ir));
    }
  }
  {
    SpanScope s(rec, "core.netlist.build");
    sp.nl = core::Netlist::build(sp.design->ir);
  }
  {
    SpanScope s(rec, "core.partitioner.partition");
    sp.parts = core::partitionNetlist(sp.nl, core::PartitionOptions{});
  }
  core::CondPartSchedule sched;
  {
    SpanScope s(rec, "core.schedule.build");
    sched = core::buildScheduleFrom(sp.nl, sp.parts, core::ScheduleOptions{}.stateElision);
  }
  {
    SpanScope s(rec, "core.activity_engine.init");
    sp.eng = std::make_unique<core::ActivityEngine>(
        core::CompiledCcss::compile(sp.design, std::move(sched)));
  }
  if (spec.compiled) {
    sp.cs = buildCompiledSim(*sp.eng, bp, rec);
    SpanScope s(rec, "gen.exec");
    GenOutput once = runGen(*sp.cs, 0, spec.blockCycles, maxCycles);
    record(rep, once.execs.at(0).obs, want, "step-path compiled execution");
    sp.genExecSeconds = once.run.seconds;
  } else {
    sp.execs.push_back(execute(*sp.eng, bp.program, spec.blockCycles, maxCycles, rec));
    record(rep, sp.execs.back().obs, want, "step-path execution");
  }
  sp.wall = now() - start;
  if (spec.compiled) {  // the in-process engine's counters, off the wall time
    sp.execs.push_back(execute(*sp.eng, bp.program, spec.blockCycles, maxCycles, rec));
    record(rep, sp.execs.back().obs, want, "step-path in-process execution");
  }
  return sp;
}

}  // namespace

RunReport runTraced(const WorkloadSpec& spec, uint64_t seed, double seconds, SpanRecorder& rec) {
  namespace core = essent::core;
  namespace sim = essent::sim;
  RunReport rep;
  const std::string text = essent::designs::tinySoCFirrtl(spec.soc);
  const BenchProgram bp = makeProgram(spec, seed);
  const Expected want = expectedResult(bp, spec.soc.memLatency);
  const uint64_t maxCycles = maxCyclesFor(want);

  // The product path: its counters (and emitted C++) are what the step
  // path must reproduce exactly. Compiling the same C++ again would add
  // nothing, so it stops at emitCpp.
  size_t productOps = 0, productParts = 0;
  std::string productCode;
  Execution productExec;
  {
    auto eng = sim::makeEngine(sim::EngineKind::Ccss, sim::compileDesign(text));
    if (spec.compiled) productCode = emitSimulator(*eng);
    productExec = execute(*eng, bp.program, spec.blockCycles, maxCycles, nullptr);
    record(rep, productExec.obs, want, "product-path execution");
    productOps = eng->ir().ops.size();
    productParts = dynamic_cast<const core::ActivityEngine&>(*eng).schedule().numPartitions();
  }
  // The step path untraced, then traced: the ratio of their wall times is
  // the tracing overhead.
  const double untracedWall = runStepPath(spec, text, bp, want, rep, nullptr).wall;

  const int root = rec.open("perfbench.run");
  StepPath sp = runStepPath(spec, text, bp, want, rep, &rec);
  core::ActivityEngine& eng = *sp.eng;
  std::vector<Execution>& execs = sp.execs;
  GenOutput gen;
  if (spec.compiled) {
    SpanScope s(&rec, "gen.timed");
    gen = runGen(*sp.cs, seconds, spec.blockCycles, maxCycles);
    for (const auto& t : gen.execs) record(rep, t.obs, want, "traced compiled execution");
  } else {
    const double t0 = now();
    while (now() - t0 < seconds) {
      {
        SpanScope s(&rec, "core.activity_engine.reset");
        eng.resetState();
      }
      execs.push_back(execute(eng, bp.program, spec.blockCycles, maxCycles, &rec));
      record(rep, execs.back().obs, want, "traced execution");
    }
  }
  rec.close(root);
  const Execution& first = execs.front();
  const core::CondPartSchedule& sched = eng.schedule();
  const auto& design = sp.design;
  const auto& cs = sp.cs;
  // Every execution is identical, so the last one's activity is the first's.
  const double effectiveActivity = eng.effectiveActivity();

  // Per-partition profile from one more execution, outside the spans: the
  // profiled tick path is slower and must not count as tick time.
  eng.resetState();
  eng.setProfiling(true);
  const Execution profiled =
      execute(eng, bp.program, spec.blockCycles, maxCycles, nullptr);
  record(rep, profiled.obs, want, "profiled execution");
  const core::ActivityProfile& prof = eng.profile();
  uint64_t profOps = 0;
  size_t top = 0;
  for (size_t i = 0; i < prof.parts.size(); i++) {
    profOps += prof.parts[i].opsEvaluated;
    if (prof.parts[i].opsEvaluated > prof.parts[top].opsEvaluated) top = i;
  }
  const double topShare =
      profOps ? static_cast<double>(prof.parts.at(top).opsEvaluated) / profOps : 0.0;
  const double topWake = counterRate(prof.parts.at(top).activations, prof.profiledCycles);

  // Consistency with the product path.
  compareCounter(rep, "sim.ir_ops", productOps, design->ir.ops.size());
  compareCounter(rep, "core.partitioner.partitions", productParts, sched.numPartitions());
  compareCounter(rep, "ops evaluated", productExec.stats.opsEvaluated, first.stats.opsEvaluated);
  compareCounter(rep, "partition checks", productExec.stats.partitionChecks,
                 first.stats.partitionChecks);
  compareCounter(rep, "workloads.sim_cycles", productExec.obs.cycles, first.obs.cycles);
  if (spec.compiled && productCode != cs->code)
    rep.errors.push_back("traced path emits different C++ than the product path");

  // Self-time accounting. Every span nests under the root, so the layer self
  // times plus the root's own (unattributed) time equal the traced wall time
  // by construction; what can go wrong is time the spans do not cover.
  const auto& spans = rec.spans();
  const double rootDur = spans[root].end - spans[root].start;
  const auto layers = layerSelfTimes(spans, root);
  for (const auto& [layer, t] : layers)
    rep.notes.push_back(strfmt("self %-24s %10.6f s  %5.1f%%", layer.c_str(), t,
                               100.0 * t / rootDur));
  const double unattributed = layers.at("unattributed") / rootDur;
  if (unattributed > kMaxUnattributed)
    rep.errors.push_back(strfmt("%.1f%% of the traced wall time is in no layer's span; at most "
                                "%.0f%% may be",
                                100.0 * unattributed, 100.0 * kMaxUnattributed));

  // Simulation speed and block times of the timed executions.
  std::vector<const Execution*> timedExecs;
  for (const auto& e : spec.compiled ? gen.execs : execs) timedExecs.push_back(&e);
  const Throughput speed = fastestQuarter(timedExecs);
  rep.notes.push_back(strfmt("timed executions: %zu; the fastest %zu give %zu blocks of %u "
                             "cycles; highest percentile with >=%zu beyond: p%g = %.1f us",
                             timedExecs.size(), speed.used, speed.blocks.count, spec.blockCycles,
                             kMinBeyond, speed.blocks.highest, speed.blocks.highestValue));

  // Per-layer metrics. Repeated calls (load, tick) report the median per
  // execution; counters come from the first execution, which is identical
  // for every run of the same seed.
  auto span = [&](const char* name) { return totalDuration(spans, name); };
  std::vector<double> loads, ticks;
  double tickTotal = 0;
  uint64_t work = 0;
  for (const auto& e : execs) {
    loads.push_back(e.loadSeconds);
    ticks.push_back(e.tickSeconds);
    tickTotal += e.tickSeconds;
    work += e.stats.opsEvaluated + e.stats.partitionChecks + e.stats.outputComparisons +
            e.stats.triggerSets;
  }
  size_t maxPartOps = 0;
  for (const auto& p : sched.parts) maxPartOps = std::max(maxPartOps, p.ops.size());
  const auto& st = first.stats;
  const double opsCount = static_cast<double>(design->ir.ops.size());

  addMetric(rep, "sim_khz", speed.khz, "kHz");
  addMetric(rep, "wall_s", untracedWall, "s");
  addMetric(rep, "block_us_p50", speed.blocks.p50, "us");
  addMetric(rep, "block_us_p99", speed.blocks.p99, "us");
  addMetric(rep, "firrtl.parse_s", span("firrtl.parse"), "s");
  addMetric(rep, "firrtl.lower_s", span("firrtl.lower"), "s");
  addMetric(rep, "firrtl.input_kb", static_cast<double>(text.size()) / 1024.0, "KiB");
  addMetric(rep, "sim.build_ir_s", span("sim.build_ir"), "s");
  addMetric(rep, "sim.ir_ops", opsCount, "count");
  addMetric(rep, "sim.compiled_design_s", span("sim.compiled_design"), "s");
  addMetric(rep, "core.netlist.build_s", span("core.netlist.build"), "s");
  addMetric(rep, "core.netlist.nodes", static_cast<double>(sp.nl.nodes.size()), "count");
  addMetric(rep, "core.partitioner.partition_s", span("core.partitioner.partition"), "s");
  addMetric(rep, "core.partitioner.partitions", static_cast<double>(sched.numPartitions()),
            "count");
  addMetric(rep, "core.partitioner.max_partition_ops", static_cast<double>(maxPartOps), "count");
  addMetric(rep, "core.partitioner.cut_edges", static_cast<double>(sp.parts.stats.cutEdges), "count");
  addMetric(rep, "core.schedule.build_s", span("core.schedule.build"), "s");
  addMetric(rep, "core.schedule.elided_regs", static_cast<double>(sched.elidedRegs), "count");
  addMetric(rep, "core.activity_engine.init_s", span("core.activity_engine.init"), "s");
  addMetric(rep, "core.activity_engine.tick_s", median(ticks), "s");
  addMetric(rep, "core.activity_engine.ops_per_cycle", counterRate(st.opsEvaluated, st.cycles),
            "count");
  addMetric(rep, "core.activity_engine.checks_per_cycle",
            counterRate(st.partitionChecks, st.cycles), "count");
  addMetric(rep, "core.activity_engine.dynamic_per_cycle",
            counterRate(st.outputComparisons + st.triggerSets, st.cycles), "count");
  addMetric(rep, "core.activity_engine.activations_per_cycle",
            counterRate(st.partitionActivations, st.cycles), "count");
  addMetric(rep, "core.activity_engine.effective_activity", effectiveActivity, "ratio");
  addMetric(rep, "core.activity_engine.ns_per_work_unit",
            work ? tickTotal * 1e9 / static_cast<double>(work) : 0.0, "ns");
  addMetric(rep, "core.activity_engine.top_partition_work_share", topShare, "ratio");
  addMetric(rep, "core.activity_engine.top_partition_wake_frac", topWake, "ratio");
  addMetric(rep, "workloads.load_s", median(loads), "s");
  addMetric(rep, "workloads.sim_cycles", static_cast<double>(first.obs.cycles), "count");
  addMetric(rep, "workloads.instret", static_cast<double>(first.obs.instret), "count");
  addMetric(rep, "workloads.cpi",
            first.obs.instret ? static_cast<double>(first.obs.cycles) / first.obs.instret : 0.0,
            "ratio");
  // Layers a workload does not exercise report 0.
  const double emittedBytes = cs ? static_cast<double>(cs->code.size()) : 0.0;
  addMetric(rep, "codegen.emit_s", cs ? cs->emitSeconds : 0.0, "s");
  addMetric(rep, "codegen.emitted_kb", emittedBytes / 1024.0, "KiB");
  addMetric(rep, "codegen.bytes_per_op", emittedBytes / opsCount, "B");
  addMetric(rep, "cc.compile_s", cs ? cs->compile.seconds : 0.0, "s");
  addMetric(rep, "cc.peak_rss_mb", cs ? cs->compile.maxRssMb : 0.0, "MB");
  addMetric(rep, "cc.binary_kb",
            cs ? static_cast<double>(std::filesystem::file_size(cs->binary())) / 1024.0 : 0.0,
            "KiB");
  addMetric(rep, "gen.exec_s", sp.genExecSeconds, "s");
  addMetric(rep, "trace.overhead_frac", sp.wall / untracedWall - 1.0, "ratio");
  addMetric(rep, "trace.unattributed_frac", unattributed, "ratio");
  addMetric(rep, "fail_frac",
            static_cast<double>(rep.failed) / static_cast<double>(rep.attempted), "ratio");
  return rep;
}

}  // namespace perfbench
