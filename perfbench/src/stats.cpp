#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

size_t percentileRank(size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of an empty sample");
  // Integer arithmetic in hundredths of a percent keeps ranks exact
  // (ceil(0.99 * 1000) must be 990, not 991 from rounding error).
  const auto hundredths = static_cast<unsigned long long>(std::llround(p * 100.0));
  const unsigned long long num = hundredths * n;
  size_t rank = static_cast<size_t>((num + 9999) / 10000);
  return std::clamp<size_t>(rank, 1, n);
}

size_t samplesBeyond(size_t n, double p) { return n == 0 ? 0 : n - percentileRank(n, p); }

double highestPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99})
    if (n > 0 && samplesBeyond(n, p) >= kMinBeyond) best = p;
  return best;
}

double percentile(std::vector<double> values, double p) {
  const size_t rank = percentileRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

BlockSummary summarizeBlocks(const std::vector<double>& values) {
  BlockSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.p50 = percentile(values, 50.0);
  s.p99 = percentile(values, 99.0);
  s.highest = highestPercentile(s.count);
  if (s.highest > 0) s.highestValue = percentile(values, s.highest);
  return s;
}

}  // namespace perfbench
