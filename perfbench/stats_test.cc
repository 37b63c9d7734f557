// Tests for the arithmetic behind perfbench's reported numbers.
#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bench/common.h"
#include "perfbench/stats.h"

namespace perfbench {
namespace {

// 1..n in a shuffled order, so the tail code must sort.
std::vector<double> Shuffled(size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  std::shuffle(xs.begin(), xs.end(), std::mt19937(7));
  return xs;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(TailLatency, PicksTheHighestRungWithTenSamplesBeyond) {
  // 100 samples: p90 is the 90th, with exactly 10 beyond; p99 has 1.
  Tail t = TailLatency(Shuffled(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  // 1000 samples reach p99 (10 beyond); 999 fall back to p90.
  t = TailLatency(Shuffled(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  t = TailLatency(Shuffled(999));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 900);
  EXPECT_EQ(t.beyond, 99u);
}

TEST(TailLatency, FewSamplesFallBackToTheMedianAndSaySo) {
  Tail t = TailLatency(Shuffled(20));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 10);
  EXPECT_EQ(t.beyond, 10u);
  t = TailLatency(Shuffled(9));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 5);
  EXPECT_EQ(t.beyond, 4u);
  t = TailLatency({});
  EXPECT_EQ(t.samples, 0u);
  EXPECT_EQ(t.value, 0);
}

TEST(Geomean, OfTheSharedBenchHelper) {
  EXPECT_DOUBLE_EQ(redfat::Geomean({1, 4}), 2);
  EXPECT_DOUBLE_EQ(redfat::Geomean({2, 8, 4}), 4);
  EXPECT_DOUBLE_EQ(redfat::Geomean({3.5}), 3.5);
  EXPECT_EQ(redfat::Geomean({}), 0);
}

TEST(OpTally, CountsFailuresAgainstAttempts) {
  OpTally t;
  EXPECT_EQ(t.FailPct(), 0);
  EXPECT_EQ(t.PassPct(), 0);
  for (int i = 0; i < 7; ++i) {
    t.Record(true);
  }
  t.Record(false);
  EXPECT_EQ(t.attempted(), 8u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_DOUBLE_EQ(t.FailPct(), 12.5);
  EXPECT_DOUBLE_EQ(t.PassPct(), 87.5);

  OpTally u;
  u.Record(false);
  u.Record(true);
  t.Add(u);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.FailPct(), 20);
}

TEST(Ratio, KeepsItsBase) {
  const Ratio r{111136, 122333};
  EXPECT_DOUBLE_EQ(r.value(), 111136.0 / 122333.0);
  EXPECT_EQ(r.base, 122333);
  EXPECT_EQ((Ratio{5, 0}).value(), 0);  // nothing attempted: no ratio
}

TEST(SelfTime, SpanMinusChildCoverage) {
  EXPECT_EQ(SelfTime({0, 10}, {}), 10);
  EXPECT_EQ(SelfTime({0, 10}, {{2, 5}}), 7);
  EXPECT_EQ(SelfTime({0, 10}, {{1, 3}, {6, 9}}), 5);
  // Overlapping children count once.
  EXPECT_EQ(SelfTime({0, 10}, {{1, 6}, {4, 8}}), 3);
  EXPECT_EQ(SelfTime({0, 10}, {{4, 8}, {1, 6}, {5, 7}}), 3);
  // Children are clipped to the span.
  EXPECT_EQ(SelfTime({0, 10}, {{-5, 2}, {9, 20}}), 7);
  EXPECT_EQ(SelfTime({0, 10}, {{-5, 20}}), 0);
}

TEST(SumOfItemMins, TakesEachItemsFastestPass) {
  // Item 0 is fastest in pass 1, item 1 in pass 0, item 2 in pass 2.
  EXPECT_EQ(SumOfItemMins({{5, 1, 9}, {2, 4, 9}, {3, 4, 6}}), 2 + 1 + 6);
  EXPECT_EQ(SumOfItemMins({{7, 8}}), 15);
  EXPECT_EQ(SumOfItemMins({}), 0);
}

TEST(SumAndMean, Basics) {
  EXPECT_EQ(Sum({1, 2, 3.5}), 6.5);
  EXPECT_EQ(Mean({1, 2, 3}), 2);
  EXPECT_EQ(Mean({}), 0);
}

}  // namespace
}  // namespace perfbench
