#include "spans.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

int SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("span closed out of order: " + spans_.at(id).name);
  spans_[id].end =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  stack_.pop_back();
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) kids.at(s.parent).emplace_back(s.start, s.end);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, curLo = 0, curHi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (open && lo <= curHi) {
        curHi = std::max(curHi, hi);
        continue;
      }
      if (open) covered += curHi - curLo;
      curLo = lo;
      curHi = hi;
      open = true;
    }
    if (open) covered += curHi - curLo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::string layerOf(const std::string& spanName) {
  const size_t dot = spanName.rfind('.');
  return dot == std::string::npos ? spanName : spanName.substr(0, dot);
}

std::map<std::string, double> layerSelfTimes(const std::vector<Span>& spans, int root) {
  const std::vector<double> self = selfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); i++)
    out[static_cast<int>(i) == root ? std::string("unattributed") : layerOf(spans[i].name)] +=
        self[i];
  return out;
}

double totalDuration(const std::vector<Span>& spans, const std::string& name) {
  double t = 0;
  for (const Span& s : spans)
    if (s.name == name) t += s.end - s.start;
  return t;
}

}  // namespace perfbench
