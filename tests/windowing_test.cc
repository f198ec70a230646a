#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/windowing/eh_sum.h"
#include "core/windowing/exponential_histogram.h"
#include "core/windowing/significant_ones.h"
#include "core/windowing/sliding_aggregator.h"
#include "core/windowing/sliding_topk.h"
#include "workload/bit_stream.h"

namespace streamlib {
namespace {

// Exact sliding-window 1-counter for ground truth.
class ExactWindowCounter {
 public:
  explicit ExactWindowCounter(uint64_t window) : window_(window) {}

  void Add(bool bit) {
    bits_.push_back(bit);
    if (bit) ones_++;
    if (bits_.size() > window_) {
      if (bits_.front()) ones_--;
      bits_.pop_front();
    }
  }

  uint64_t Count() const { return ones_; }

 private:
  uint64_t window_;
  std::deque<bool> bits_;
  uint64_t ones_ = 0;
};

// --------------------------------------------------- ExponentialHistogram

TEST(ExponentialHistogramTest, ExactForAllZeros) {
  ExponentialHistogram eh(100, 4);
  for (int i = 0; i < 1000; i++) eh.Add(false);
  EXPECT_EQ(eh.Estimate(), 0u);
}

TEST(ExponentialHistogramTest, ExactWhileFewOnes) {
  ExponentialHistogram eh(1000, 8);
  for (int i = 0; i < 5; i++) {
    eh.Add(true);
    eh.Add(false);
  }
  EXPECT_EQ(eh.Estimate(), 5u);
}

TEST(ExponentialHistogramTest, OnesExpireWithWindow) {
  ExponentialHistogram eh(100, 4);
  for (int i = 0; i < 50; i++) eh.Add(true);
  for (int i = 0; i < 200; i++) eh.Add(false);
  EXPECT_EQ(eh.Estimate(), 0u);
}

TEST(ExponentialHistogramTest, RelativeErrorBound) {
  const uint64_t kWindow = 10000;
  const uint32_t kK = 8;  // Relative error <= 1/(2*(k-1)) ~ 7%.
  ExponentialHistogram eh(kWindow, kK);
  ExactWindowCounter exact(kWindow);
  workload::BernoulliBitStream stream(0.3, 31);

  double max_rel_err = 0;
  for (int i = 0; i < 100000; i++) {
    const bool bit = stream.Next();
    eh.Add(bit);
    exact.Add(bit);
    if (i > 1000 && i % 97 == 0) {
      const double m = static_cast<double>(exact.Count());
      const double err = std::fabs(static_cast<double>(eh.Estimate()) - m);
      if (m > 0) max_rel_err = std::max(max_rel_err, err / m);
      // Bounds must always bracket the truth.
      EXPECT_LE(eh.LowerBound(), exact.Count());
      EXPECT_GE(eh.UpperBound(), exact.Count());
    }
  }
  EXPECT_LE(max_rel_err, 1.0 / kK);
}

TEST(ExponentialHistogramTest, BurstyStreamStillBounded) {
  const uint64_t kWindow = 4096;
  const uint32_t kK = 4;
  ExponentialHistogram eh(kWindow, kK);
  ExactWindowCounter exact(kWindow);
  workload::BurstyBitStream stream(0.95, 0.01, 0.002, 0.01, 33);
  double max_rel_err = 0;
  for (int i = 0; i < 200000; i++) {
    const bool bit = stream.Next();
    eh.Add(bit);
    exact.Add(bit);
    if (i % 101 == 0 && exact.Count() > 50) {
      const double m = static_cast<double>(exact.Count());
      max_rel_err = std::max(
          max_rel_err, std::fabs(static_cast<double>(eh.Estimate()) - m) / m);
    }
  }
  EXPECT_LE(max_rel_err, 1.0 / (2.0 * (kK - 1)) + 0.02);
}

TEST(ExponentialHistogramTest, SpaceIsLogarithmic) {
  ExponentialHistogram eh(1 << 20, 8);
  workload::BernoulliBitStream stream(0.5, 35);
  for (int i = 0; i < (1 << 21); i++) eh.Add(stream.Next());
  // O(k log W): ~ 8 * 20 = 160 buckets, far below the 2^19 ones in window.
  EXPECT_LT(eh.NumBuckets(), 400u);
}

// Shards on a shared timeline (each 1 owned by one shard) interleave their
// buckets when merged, so a bucket other than the oldest can straddle the
// window start. The merged bounds must still bracket the true count.
TEST(ExponentialHistogramTest, MergedShardsBracketTheTrueCount) {
  const uint64_t kWindow = 256;
  for (uint64_t round = 0; round < 200; round++) {
    Rng rng(round);
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const size_t shards = 2 + rng.NextBounded(3);
    const uint64_t density = 2 + rng.NextBounded(8);  // 1 in density is a 1.
    std::vector<ExponentialHistogram> parts(shards,
                                            ExponentialHistogram(kWindow, k));
    ExactWindowCounter exact(kWindow);
    const uint64_t length = kWindow + rng.NextBounded(4 * kWindow);
    for (uint64_t i = 0; i < length; i++) {
      const bool bit = rng.NextBounded(density) == 0;
      const size_t owner = rng.NextBounded(shards);
      for (size_t s = 0; s < shards; s++) parts[s].Add(bit && s == owner);
      exact.Add(bit);
    }
    ExponentialHistogram merged(kWindow, k);
    for (const ExponentialHistogram& part : parts) {
      ASSERT_TRUE(merged.Merge(part).ok());
    }
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_LE(merged.LowerBound(), exact.Count());
    EXPECT_GE(merged.UpperBound(), exact.Count());
    EXPECT_GE(merged.Estimate(), merged.LowerBound());
    EXPECT_LE(merged.Estimate(), merged.UpperBound());
  }
}

// K sweep: error must shrink as k grows.
class EhKSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EhKSweep, ErrorScalesInverselyWithK) {
  const uint32_t k = GetParam();
  const uint64_t kWindow = 8192;
  ExponentialHistogram eh(kWindow, k);
  ExactWindowCounter exact(kWindow);
  workload::BernoulliBitStream stream(0.4, 100 + k);
  double max_rel_err = 0;
  for (int i = 0; i < 60000; i++) {
    const bool bit = stream.Next();
    eh.Add(bit);
    exact.Add(bit);
    if (i > 9000 && i % 89 == 0) {
      const double m = static_cast<double>(exact.Count());
      max_rel_err = std::max(
          max_rel_err, std::fabs(static_cast<double>(eh.Estimate()) - m) / m);
    }
  }
  EXPECT_LE(max_rel_err, 1.0 / (2.0 * (k - 1)) + 0.01) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, EhKSweep, ::testing::Values(2, 4, 8, 16, 32));

// -------------------------------------------------------------- EhSum

TEST(EhSumTest, SumOfConstantStream) {
  EhSum sum(1000, 16, 8);
  for (int i = 0; i < 5000; i++) sum.Add(10);
  // Window of 1000 values of 10 = 10000.
  EXPECT_NEAR(static_cast<double>(sum.Estimate()), 10000.0, 10000.0 * 0.10);
}

TEST(EhSumTest, TracksChangingValues) {
  EhSum sum(1024, 16, 10);
  Rng rng(37);
  std::deque<uint32_t> window;
  uint64_t exact = 0;
  double max_rel_err = 0;
  for (int i = 0; i < 50000; i++) {
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(1000));
    sum.Add(v);
    window.push_back(v);
    exact += v;
    if (window.size() > 1024) {
      exact -= window.front();
      window.pop_front();
    }
    if (i > 2000 && i % 61 == 0) {
      max_rel_err = std::max(
          max_rel_err,
          std::fabs(static_cast<double>(sum.Estimate()) -
                    static_cast<double>(exact)) /
              static_cast<double>(exact));
    }
  }
  EXPECT_LT(max_rel_err, 0.08);
}

TEST(EhSumTest, ZeroValuesContributeNothing) {
  EhSum sum(100, 8, 4);
  for (int i = 0; i < 1000; i++) sum.Add(0);
  EXPECT_EQ(sum.Estimate(), 0u);
}

// ----------------------------------------------------- SlidingAggregator

TEST(SlidingAggregatorTest, SumMatchesExact) {
  SlidingAggregator<SumMonoid> agg(100);
  double exact = 0;
  std::deque<double> window;
  Rng rng(41);
  for (int i = 0; i < 10000; i++) {
    const double v = rng.NextDouble();
    agg.Add(SumMonoid::Of(v));
    window.push_back(v);
    exact += v;
    if (window.size() > 100) {
      exact -= window.front();
      window.pop_front();
    }
    ASSERT_NEAR(agg.Query().sum, exact, 1e-6);
  }
}

TEST(SlidingAggregatorTest, MaxAndMinMatchExact) {
  SlidingAggregator<MaxMonoid> max_agg(64);
  SlidingAggregator<MinMonoid> min_agg(64);
  std::deque<double> window;
  Rng rng(43);
  for (int i = 0; i < 5000; i++) {
    const double v = rng.NextGaussian();
    max_agg.Add(MaxMonoid::Of(v));
    min_agg.Add(MinMonoid::Of(v));
    window.push_back(v);
    if (window.size() > 64) window.pop_front();
    const double exact_max = *std::max_element(window.begin(), window.end());
    const double exact_min = *std::min_element(window.begin(), window.end());
    ASSERT_DOUBLE_EQ(max_agg.Query().max, exact_max);
    ASSERT_DOUBLE_EQ(min_agg.Query().min, exact_min);
  }
}

TEST(SlidingAggregatorTest, VarianceMatchesExact) {
  SlidingAggregator<VarianceMonoid> agg(128);
  std::deque<double> window;
  Rng rng(47);
  for (int i = 0; i < 5000; i++) {
    const double v = rng.NextGaussian() * 5.0 + 100.0;
    agg.Add(VarianceMonoid::Of(v));
    window.push_back(v);
    if (window.size() > 128) window.pop_front();
    if (i % 37 == 0 && window.size() > 1) {
      double mean = 0;
      for (double x : window) mean += x;
      mean /= static_cast<double>(window.size());
      double m2 = 0;
      for (double x : window) m2 += (x - mean) * (x - mean);
      const double exact_var = m2 / static_cast<double>(window.size());
      EXPECT_NEAR(agg.Query().Variance(), exact_var, 1e-6);
    }
  }
}

TEST(SlidingAggregatorTest, WindowOfOne) {
  SlidingAggregator<SumMonoid> agg(1);
  agg.Add(SumMonoid::Of(5.0));
  EXPECT_DOUBLE_EQ(agg.Query().sum, 5.0);
  agg.Add(SumMonoid::Of(7.0));
  EXPECT_DOUBLE_EQ(agg.Query().sum, 7.0);
}

// ------------------------------------------------- SignificantOneCounter

TEST(SignificantOneCounterTest, AccurateWhenSignificant) {
  const uint64_t kWindow = 10000;
  const double kTheta = 0.2;
  const double kEps = 0.1;
  SignificantOneCounter soc(kWindow, kTheta, kEps);
  ExactWindowCounter exact(kWindow);
  workload::BernoulliBitStream stream(0.5, 51);  // Always significant.
  double max_rel_err = 0;
  for (int i = 0; i < 100000; i++) {
    const bool bit = stream.Next();
    soc.Add(bit);
    exact.Add(bit);
    if (i > 20000 && i % 113 == 0) {
      const double m = static_cast<double>(exact.Count());
      EXPECT_TRUE(soc.IsSignificant());
      max_rel_err = std::max(
          max_rel_err,
          std::fabs(static_cast<double>(soc.Estimate()) - m) / m);
    }
  }
  EXPECT_LE(max_rel_err, kEps);
}

TEST(SignificantOneCounterTest, UsesLessSpaceThanPlainDgim) {
  const uint64_t kWindow = 1 << 16;
  const double kEps = 0.05;
  SignificantOneCounter soc(kWindow, /*theta=*/0.3, kEps);
  ExponentialHistogram dgim(kWindow,
                            static_cast<uint32_t>(std::ceil(1.0 / kEps)) + 1);
  workload::BernoulliBitStream stream(0.5, 53);
  for (int i = 0; i < (1 << 18); i++) {
    const bool bit = stream.Next();
    soc.Add(bit);
    dgim.Add(bit);
  }
  EXPECT_LT(soc.NumBuckets(), dgim.NumBuckets());
}

// ------------------------------------------------------------ SlidingTopK

TEST(SlidingTopKTest, MatchesBruteForceOnRandomStream) {
  const size_t kK = 5;
  const uint64_t kW = 200;
  SlidingTopK<int> topk(kK, kW);
  std::deque<std::pair<double, int>> window;
  Rng rng(61);
  for (int i = 0; i < 5000; i++) {
    const double score = rng.NextDouble() * 1000.0;
    topk.Add(score, i);
    window.emplace_back(score, i);
    if (window.size() > kW) window.pop_front();
    if (i > 300 && i % 97 == 0) {
      auto brute = window;
      std::sort(brute.begin(), brute.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      auto got = topk.TopK();
      ASSERT_EQ(got.size(), kK) << i;
      for (size_t j = 0; j < kK; j++) {
        EXPECT_DOUBLE_EQ(got[j].first, brute[j].first) << i << " " << j;
        EXPECT_EQ(got[j].second, brute[j].second) << i << " " << j;
      }
    }
  }
}

TEST(SlidingTopKTest, OldChampionExpires) {
  SlidingTopK<std::string> topk(1, 10);
  topk.Add(1000.0, "champion");
  for (int i = 0; i < 9; i++) topk.Add(1.0, "filler");
  EXPECT_EQ(topk.TopK()[0].second, "champion");
  topk.Add(1.0, "pusher");  // Champion leaves the window.
  EXPECT_NE(topk.TopK()[0].second, "champion");
}

TEST(SlidingTopKTest, CandidateSetStaysSmall) {
  // The k-skyband over a 100k window of random scores should retain
  // O(k log(W/k)) ~ tens of candidates, not W.
  SlidingTopK<int> topk(10, 100000);
  Rng rng(67);
  for (int i = 0; i < 300000; i++) {
    topk.Add(rng.NextDouble(), i);
  }
  EXPECT_LT(topk.CandidateCount(), 400u);
}

TEST(SlidingTopKTest, AscendingScoresKeepOnlyKCandidates) {
  SlidingTopK<int> topk(3, 1000);
  for (int i = 0; i < 5000; i++) {
    topk.Add(static_cast<double>(i), i);
  }
  // Every arrival dominates all residents: only the last k survive.
  EXPECT_EQ(topk.CandidateCount(), 3u);
  auto top = topk.TopK();
  EXPECT_DOUBLE_EQ(top[0].first, 4999.0);
}

TEST(SignificantOneCounterTest, InsignificantWindowsFlagged) {
  SignificantOneCounter soc(1000, 0.5, 0.1);
  workload::BernoulliBitStream stream(0.05, 55);  // Well below theta.
  for (int i = 0; i < 5000; i++) soc.Add(stream.Next());
  EXPECT_FALSE(soc.IsSignificant());
}

}  // namespace
}  // namespace streamlib
