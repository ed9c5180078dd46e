// Order statistics for the benchmark's timing samples.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n samples
// is the sample at 1-based rank ceil(p/100 * n) in ascending order, so
// exactly n - rank samples lie beyond it. A tail percentile is reported only
// when at least kMinBeyond samples lie beyond it; fewer make it a statement
// about one or two outliers rather than a tail.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

constexpr size_t kMinBeyond = 10;

// 1-based nearest rank of the p-th percentile among n samples (n >= 1).
size_t percentileRank(size_t n, double p);

// Samples strictly beyond the p-th percentile's rank.
size_t samplesBeyond(size_t n, double p);

// Highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has at
// least kMinBeyond samples beyond it; 0 when not even the median has.
double highestPercentile(size_t n);

// Nearest-rank percentile of unsorted `values` (must be non-empty).
double percentile(std::vector<double> values, double p);

// Median: mean of the two middle samples for an even count.
double median(std::vector<double> values);

// Summary of fixed-size block timings as the benchmark reports them.
struct BlockSummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double highest = 0;       // highestPercentile(count)
  double highestValue = 0;  // the sample at that percentile
  bool p99Valid() const { return count > 0 && samplesBeyond(count, 99.0) >= kMinBeyond; }
};
BlockSummary summarizeBlocks(const std::vector<double>& values);

}  // namespace perfbench
