// The arithmetic behind every number perfbench reports. It depends on no
// library under test, so stats_test.cc pins it down on its own.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline double Sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) {
    s += x;
  }
  return s;
}

inline double Mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Sum(xs) / static_cast<double>(xs.size());
}

// Median of the samples (mean of the middle two for an even count); 0 when
// there are none.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// Each pass times the same items in the same order; `per_pass[p][i]` is
// item i's time in pass p. Returns the sum over items of each item's
// fastest time, 0 when there are no passes. Interference on a shared host
// only ever slows an item down, so this is the load's time on a quiet host.
inline double SumOfItemMins(const std::vector<std::vector<double>>& per_pass) {
  if (per_pass.empty()) {
    return 0.0;
  }
  std::vector<double> best = per_pass.front();
  for (const std::vector<double>& pass : per_pass) {
    for (size_t i = 0; i < best.size() && i < pass.size(); ++i) {
      best[i] = std::min(best[i], pass[i]);
    }
  }
  return Sum(best);
}

// A tail latency together with what it was taken from: the percentile,
// the number of samples, and how many samples lie beyond it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

// The percentiles a tail may be reported at, lowest first.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0};
inline constexpr size_t kTailMinBeyond = 10;

// 1-based nearest rank of percentile `p` among `n` sorted samples.
inline size_t NearestRank(double p, size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

// The highest ladder percentile that still has at least kTailMinBeyond
// samples beyond its rank, so a tail is never read off a handful of
// outliers. With too few samples for any rung it falls back to the median
// and says how thin it is through `beyond`.
inline Tail TailLatency(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) {
    return t;
  }
  std::sort(xs.begin(), xs.end());
  t.percentile = kTailLadder[0];
  for (double p : kTailLadder) {
    if (xs.size() - NearestRank(p, xs.size()) >= kTailMinBeyond) {
      t.percentile = p;
    }
  }
  const size_t rank = NearestRank(t.percentile, xs.size());
  t.value = xs[rank - 1];
  t.beyond = xs.size() - rank;
  return t;
}

// A ratio that keeps its base, so it is always reported as "part of what".
struct Ratio {
  double part = 0.0;
  double base = 0.0;

  double value() const { return base == 0.0 ? 0.0 : part / base; }
};

// Correctness accounting: every check is one attempted operation.
class OpTally {
 public:
  void Record(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  void Add(const OpTally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double FailPct() const { return attempted_ == 0 ? 0.0 : 100.0 * failed_ / attempted_; }
  double PassPct() const { return attempted_ == 0 ? 0.0 : 100.0 - FailPct(); }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

// Self time of a span: its length minus the part of it that its children
// cover. Children are clipped to the span, and overlapping children count
// once.
inline double SelfTime(Interval span, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, span.start);
    c.end = std::min(c.end, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = span.start;
  for (const Interval& c : children) {
    if (c.end <= reach) {
      continue;
    }
    covered += c.end - std::max(c.start, reach);
    reach = c.end;
  }
  return (span.end - span.start) - covered;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
