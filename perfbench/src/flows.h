// The benchmark's workloads and the two ways it runs them.
//
// An untraced run measures what a user sees, in rounds: set-up (FIRRTL text
// to a ready simulator), the first checked result, then repeated program
// executions timed in fixed-size blocks of simulated cycles. A
// traced run calls the layers one by one with a span around each call,
// checks that this step-by-step path computes exactly what the product path
// (compileDesign + makeEngine) computes, and reports per-layer metrics.
// Every program execution in either run is checked against the reference
// model; a mismatch is counted, never retried.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "designs/tinysoc.h"
#include "programs.h"
#include "spans.h"

namespace perfbench {

enum class ProgramKind { Dhrystone, Pchase };

struct WorkloadSpec {
  std::string name;
  essent::designs::SoCConfig soc;
  ProgramKind program = ProgramKind::Dhrystone;
  uint32_t size = 0;  // dhrystone iterations, or pchase list length
  uint32_t laps = 0;  // pchase only
  // The paper's shipped flow: emit C++, compile it with the host compiler,
  // run the binary. Otherwise the in-process CCSS engine simulates.
  bool compiled = false;
  uint32_t blockCycles = 64;  // simulated cycles per timed block
  int rounds = 3;             // minimum set-ups per untraced run
};

// boom_dhrystone, boom_pchase, compiled_midsoc_dhrystone.
const std::vector<WorkloadSpec>& benchmarkWorkloads();
// Null when no workload has that name.
const WorkloadSpec* findWorkload(const std::string& name);

BenchProgram makeProgram(const WorkloadSpec& spec, uint64_t seed);

// The compile command for generated simulators (essentc --compile-run's).
const std::vector<std::string>& hostCompileFlags();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;  // program executions
  uint64_t failed = 0;     // executions whose result did not match
  // One line per failed execution, per traced/untraced counter mismatch,
  // and for a traced run whose spans leave too much time unattributed.
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // human-readable detail lines
  bool correct() const { return errors.empty(); }
  const Metric* find(const std::string& name) const;
};

RunReport runUntraced(const WorkloadSpec& spec, uint64_t seed, double seconds);
RunReport runTraced(const WorkloadSpec& spec, uint64_t seed, double seconds, SpanRecorder& rec);

}  // namespace perfbench
