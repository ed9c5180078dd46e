#include "programs.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/strutil.h"
#include "workloads/assembler.h"

namespace perfbench {

using essent::Rng;
using essent::workloads::encodeI;
using essent::workloads::Opc;

constexpr uint16_t kChecksumSeedAddr = 22;  // unused by the library program

BenchProgram seededDhrystone(uint32_t iterations, uint64_t seed) {
  BenchProgram bp;
  bp.program = essent::workloads::dhrystoneProgram(iterations);
  auto& code = bp.program.code;
  // The library program opens with `li x1, 0` (one addi); replace it with a
  // load of the seeded initial checksum, keeping every address in place.
  if (code.empty() || code[0] != encodeI(Opc::Addi, 1, 0, 0))
    throw std::logic_error("dhrystone no longer starts with `addi x1, x0, 0`");
  code[0] = encodeI(Opc::Lw, 1, 0, kChecksumSeedAddr);
  Rng rng(seed ^ 0xd1e5'7a11ULL);
  bp.program.data.emplace_back(kChecksumSeedAddr, static_cast<uint16_t>(rng.nextBelow(1u << 16)));
  // Per iteration a store and a load, an accelerator-start store on every
  // 16th; plus the seed load above and the final checksum store.
  bp.memOps = 2ull * iterations + iterations / 16 + 2;
  return bp;
}

// workloads::pchaseProgram walks whole laps of a single cycle, so it ends
// where it began (256) under every permutation, and its checksum cannot tell
// a right load from a wrong one. This pchase walks half a lap further, to a
// node that the seeded permutation decides.
BenchProgram seededPchase(uint32_t listLength, uint32_t laps, uint64_t seed) {
  if (listLength < 2) throw std::invalid_argument("pchase needs a list of at least 2");
  const uint64_t steps = static_cast<uint64_t>(listLength) * laps + listLength / 2;
  if (steps > 0xffff) throw std::invalid_argument("pchase step count does not fit 16 bits");
  essent::workloads::Asm a;
  a.li(1, 256);  // head pointer
  a.li(2, static_cast<uint16_t>(steps));
  a.label("loop");
  a.lw(1, 1, 0);  // serialized dependent load
  a.addi(2, 2, -1);
  a.bne(2, 0, "loop");
  a.sw(1, 0, 21);
  a.halt();

  BenchProgram bp;
  bp.program.name = "pchase";
  bp.program.description = "pointer chase over a seeded single-cycle permutation";
  bp.program.code = a.assemble();
  // Sattolo's algorithm: a single cycle through every list word.
  std::vector<uint32_t> perm(listLength);
  for (uint32_t i = 0; i < listLength; i++) perm[i] = i;
  Rng rng(seed ^ 0x9c4a'5e00ULL);
  for (uint32_t i = listLength - 1; i >= 1; i--)
    std::swap(perm[i], perm[rng.nextBelow(i)]);
  for (uint32_t i = 0; i < listLength; i++)
    bp.program.data.emplace_back(static_cast<uint16_t>(256 + i),
                                 static_cast<uint16_t>(256 + perm[i]));
  // One dependent load per step, then the final checksum store.
  bp.memOps = steps + 1;
  return bp;
}

Expected expectedResult(const BenchProgram& p, uint32_t memLatency) {
  const auto ref = essent::workloads::runReferenceModel(p.program, 50'000'000);
  if (!ref.halted) throw std::runtime_error(p.program.name + ": reference model did not halt");
  Expected e;
  e.instret = ref.instret;
  e.checksum = ref.regs[1];  // every program stores x1 to dmem[21] just before HALT
  e.cycles = ref.instret + memLatency * p.memOps + 2;
  return e;
}

std::string mismatch(const Observed& got, const Expected& want) {
  if (!got.halted) return essent::strfmt("did not halt within %llu cycles",
                                         static_cast<unsigned long long>(got.cycles));
  if (got.checksum != want.checksum)
    return essent::strfmt("checksum 0x%04x, reference 0x%04x", got.checksum, want.checksum);
  if (got.instret != want.instret)
    return essent::strfmt("instret %llu, reference %llu",
                          static_cast<unsigned long long>(got.instret),
                          static_cast<unsigned long long>(want.instret));
  if (got.cycles != want.cycles)
    return essent::strfmt("%llu cycles, timing model %llu",
                          static_cast<unsigned long long>(got.cycles),
                          static_cast<unsigned long long>(want.cycles));
  return {};
}

}  // namespace perfbench
