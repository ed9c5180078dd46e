// Seeded TinySoC programs and their expected results.
//
// The seed changes the data a program computes on, never its control flow,
// so every seed of a workload simulates the same number of cycles and the
// timings of different seeds stay comparable:
//   * dhrystone loads its initial checksum from a seeded data word;
//   * pchase walks a seeded single-cycle permutation (Sattolo's algorithm)
//     for a fixed number of steps that is not a whole number of laps, so the
//     node it stops on, its checksum, depends on the permutation.
//
// The expected result of a program comes from workloads::runReferenceModel,
// an ISA-level model independent of every simulator under test. The exact
// cycle count follows from the core's timing: one cycle per retired
// instruction, memLatency extra cycles per load or store, one cycle for
// HALT and one more on which the stop fires.
#pragma once

#include <cstdint>

#include "workloads/programs.h"

namespace perfbench {

struct BenchProgram {
  essent::workloads::Program program;
  uint64_t memOps = 0;  // loads + stores the program executes
};

BenchProgram seededDhrystone(uint32_t iterations, uint64_t seed);
BenchProgram seededPchase(uint32_t listLength, uint32_t laps, uint64_t seed);

struct Expected {
  uint64_t cycles = 0;  // post-reset cycles up to and including the stop
  uint64_t instret = 0;
  uint16_t checksum = 0;  // dmem[21]
};
Expected expectedResult(const BenchProgram& p, uint32_t memLatency);

// One program execution as observed on a simulator.
struct Observed {
  bool halted = false;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  uint16_t checksum = 0;
};

// Empty when `got` matches `want`; otherwise a one-line description.
std::string mismatch(const Observed& got, const Expected& want);

}  // namespace perfbench
