// Self-tests of the benchmark: its statistics rules, span self-time
// accounting, and a socTiny smoke run of all three workload paths (the
// compiled one includes the host compile).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <set>
#include <vector>

#include "flows.h"
#include "programs.h"
#include "spans.h"
#include "stats.h"

using namespace perfbench;

TEST(Stats, NearestRankAndSamplesBeyond) {
  EXPECT_EQ(percentileRank(1000, 99.0), 990u);
  EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(percentileRank(1, 50.0), 1u);
  EXPECT_EQ(percentileRank(10, 50.0), 5u);
  EXPECT_EQ(percentileRank(7, 100.0), 7u);
}

TEST(Stats, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highestPercentile(0), 0.0);
  EXPECT_EQ(highestPercentile(19), 0.0);
  EXPECT_EQ(highestPercentile(20), 50.0);
  EXPECT_EQ(highestPercentile(100), 90.0);
  EXPECT_EQ(highestPercentile(999), 90.0);
  EXPECT_EQ(highestPercentile(1000), 99.0);
  EXPECT_EQ(highestPercentile(9999), 99.0);
  EXPECT_EQ(highestPercentile(10000), 99.9);
  EXPECT_EQ(highestPercentile(100000), 99.99);
}

TEST(Stats, PercentileMedianAndBlockSummary) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; i--) v.push_back(i);
  EXPECT_EQ(percentile(v, 99.0), 990.0);
  EXPECT_EQ(percentile(v, 50.0), 500.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);

  BlockSummary s = summarizeBlocks(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_TRUE(s.p99Valid());
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.highest, 99.0);
  v.pop_back();
  EXPECT_FALSE(summarizeBlocks(v).p99Valid());
  EXPECT_EQ(summarizeBlocks(v).highest, 90.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,10] with children a [1,4] and b [3,6] (overlapping), and c
  // [2,3] under a; d [9,12] overruns the root and is clipped.
  std::vector<Span> spans = {
      {"perfbench.run", -1, 0, 10}, {"core.netlist.build", 0, 1, 4},
      {"core.partitioner.partition", 0, 3, 6}, {"firrtl.parse", 1, 2, 3},
      {"cc.compile", 0, 9, 12},
  };
  const auto self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 1);  // union [1,6] plus [9,10]
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(self[4], 3);

  EXPECT_EQ(layerOf("core.partitioner.partition"), "core.partitioner");
  EXPECT_EQ(layerOf("firrtl.parse"), "firrtl");
  EXPECT_EQ(layerOf("root"), "root");

  // Non-overlapping children (what a single-threaded run records): the
  // layer self times plus the unattributed time equal the root's duration.
  spans[2].start = 4;
  spans[4].end = 10;
  const auto layers = layerSelfTimes(spans, 0);
  double sum = 0;
  for (const auto& [name, t] : layers) sum += t;
  EXPECT_DOUBLE_EQ(sum, 10);
  EXPECT_DOUBLE_EQ(layers.at("unattributed"), 4);
  EXPECT_DOUBLE_EQ(layers.at("core.netlist"), 2);
  EXPECT_DOUBLE_EQ(layers.at("firrtl"), 1);
}

TEST(Spans, RecorderNestsAndRejectsOutOfOrderClose) {
  SpanRecorder rec;
  const int root = rec.open("perfbench.run");
  {
    SpanScope a(&rec, "firrtl.parse");
    SpanScope b(&rec, "firrtl.lower");
  }
  EXPECT_THROW(rec.close(root + 1), std::logic_error);
  rec.close(root);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 1);
  EXPECT_LE(rec.spans()[2].end, rec.spans()[1].end);
  SpanScope noop(nullptr, "ignored");  // untraced runs record nothing
  EXPECT_EQ(rec.spans().size(), 3u);
}

TEST(Programs, SeedChangesDataNotControlFlow) {
  const BenchProgram a = seededPchase(64, 2, 1), b = seededPchase(64, 2, 2);
  EXPECT_EQ(a.program.code, b.program.code);
  EXPECT_NE(a.program.data, b.program.data);
  EXPECT_EQ(seededPchase(64, 2, 1).program.data, a.program.data);
  const Expected ea = expectedResult(a, 3), eb = expectedResult(b, 3);
  EXPECT_EQ(ea.cycles, eb.cycles);
  EXPECT_EQ(ea.instret, eb.instret);
  // The chase stops on a node the permutation decides, so a simulator whose
  // loads go wrong cannot still end on the expected pointer.
  EXPECT_NE(ea.checksum, eb.checksum);
  EXPECT_NE(ea.checksum, 256);

  const BenchProgram d1 = seededDhrystone(40, 1), d2 = seededDhrystone(40, 2);
  EXPECT_EQ(d1.program.code, d2.program.code);
  EXPECT_NE(expectedResult(d1, 3).checksum, expectedResult(d2, 3).checksum);
  EXPECT_EQ(expectedResult(d1, 3).cycles, expectedResult(d2, 3).cycles);
}

TEST(Programs, MismatchNamesTheWrongField) {
  const Expected want{100, 60, 0x1234};
  EXPECT_EQ(mismatch({true, 100, 60, 0x1234}, want), "");
  EXPECT_NE(mismatch({false, 100, 60, 0x1234}, want), "");
  EXPECT_NE(mismatch({true, 100, 60, 0x1235}, want).find("checksum"), std::string::npos);
  EXPECT_NE(mismatch({true, 100, 61, 0x1234}, want).find("instret"), std::string::npos);
  EXPECT_NE(mismatch({true, 101, 60, 0x1234}, want).find("cycles"), std::string::npos);
}

namespace {

// The named workload's code path on socTiny with short programs, so the
// whole smoke runs in seconds.
WorkloadSpec tinyVersion(const std::string& name) {
  WorkloadSpec spec = *findWorkload(name);
  spec.soc = essent::designs::socTiny();
  spec.size = spec.program == ProgramKind::Pchase ? 32 : 64;
  spec.laps = 4;
  spec.blockCycles = spec.compiled ? 64 : 8;
  spec.rounds = 1;
  return spec;
}

std::set<std::string> metricNames(const RunReport& rep) {
  std::set<std::string> names;
  for (const auto& m : rep.metrics) names.insert(m.name);
  return names;
}

}  // namespace

TEST(Smoke, AllThreeWorkloadPathsOnSocTiny) {
  ASSERT_EQ(benchmarkWorkloads().size(), 3u);
  for (const auto& w : benchmarkWorkloads()) {
    SCOPED_TRACE(w.name);
    const WorkloadSpec spec = tinyVersion(w.name);
    const Expected want = expectedResult(makeProgram(spec, 7), spec.soc.memLatency);

    const RunReport plain = runUntraced(spec, 7, 0.2);
    for (const auto& e : plain.errors) ADD_FAILURE() << e;
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_GE(plain.attempted, 2u);
    EXPECT_EQ(metricNames(plain), (std::set<std::string>{"setup_s", "peak_rss_mb", "pass_frac"}));
    for (const auto& m : plain.metrics) EXPECT_GT(m.value, 0) << m.name;

    SpanRecorder rec;
    const RunReport traced = runTraced(spec, 7, 0.3, rec);
    for (const auto& e : traced.errors) ADD_FAILURE() << e;
    EXPECT_EQ(traced.failed, 0u);
    EXPECT_EQ(traced.find("workloads.sim_cycles")->value, static_cast<double>(want.cycles));
    EXPECT_EQ(traced.find("workloads.instret")->value, static_cast<double>(want.instret));
    EXPECT_EQ(traced.find("fail_frac")->value, 0.0);
    for (const char* m : {"sim_khz", "wall_s", "block_us_p50", "block_us_p99"})
      EXPECT_GT(traced.find(m)->value, 0) << m;
    EXPECT_LE(traced.find("block_us_p50")->value, traced.find("block_us_p99")->value);
    EXPECT_GT(traced.find("core.activity_engine.top_partition_work_share")->value, 0.0);
    EXPECT_EQ(traced.find("cc.compile_s")->value > 0, spec.compiled);
    EXPECT_EQ(traced.find("gen.exec_s")->value > 0, spec.compiled);
    EXPECT_EQ(traced.find("codegen.emitted_kb")->value > 0, spec.compiled);
  }
}

TEST(Smoke, CompiledPeakRssExcludesTheBenchmarksOwnMemory) {
  // 64 MiB of this process's memory, touched. A child forked from this
  // process starts with a copy of it, which is not the generated
  // simulator's memory and must not be counted as such.
  std::vector<char> ballast(64u << 20, 1);
  const RunReport rep = runUntraced(tinyVersion("compiled_midsoc_dhrystone"), 7, 0.1);
  for (const auto& e : rep.errors) ADD_FAILURE() << e;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double ownMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double simMb = rep.find("peak_rss_mb")->value;
  EXPECT_GT(simMb, 0.0);
  EXPECT_LT(simMb, 32.0) << "this process peaked at " << ownMb << " MB";
  EXPECT_GT(ownMb, 64.0);
  EXPECT_EQ(ballast[ballast.size() / 2], 1);
}
