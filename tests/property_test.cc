// Cross-cutting property tests: invariants every mergeable/serializable/
// seeded structure in the library must satisfy, regardless of workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "common/state.h"
#include "core/cardinality/hll_register.h"
#include "core/cardinality/hyperloglog.h"
#include "core/cardinality/kmv_sketch.h"
#include "core/cardinality/linear_counter.h"
#include "core/cardinality/loglog.h"
#include "core/cardinality/pcsa.h"
#include "core/cardinality/sliding_hyperloglog.h"
#include "core/clustering/micro_clusters.h"
#include "core/filtering/deletable_bloom_filter.h"
#include "core/frequency/count_min_sketch.h"
#include "core/frequency/count_sketch.h"
#include "core/frequency/dyadic_count_min.h"
#include "core/frequency/misra_gries.h"
#include "core/frequency/space_saving.h"
#include "core/moments/ams_sketch.h"
#include "core/quantiles/ckms_quantile.h"
#include "core/quantiles/gk_quantile.h"
#include "core/quantiles/qdigest.h"
#include "core/quantiles/tdigest.h"
#include "core/windowing/eh_sum.h"
#include "core/windowing/exponential_histogram.h"
#include "test_seed.h"
#include "workload/zipf.h"

namespace streamlib {
namespace {

// ---------------------------------------------------------------- Merging
//
// Property: for mergeable summaries, merging must be order-insensitive —
// ((A + B) + C) and (A + (B + C)) must answer identically, and both must
// match the summary of the concatenated stream.

template <typename Sketch, typename AddFn>
void FillRange(Sketch* s, uint64_t lo, uint64_t hi, AddFn add) {
  for (uint64_t i = lo; i < hi; i++) add(s, i);
}

TEST(MergePropertyTest, HyperLogLogMergeIsAssociativeAndStreamEquivalent) {
  auto add = [](HyperLogLog* h, uint64_t i) { h->Add(i); };
  HyperLogLog a(12);
  HyperLogLog b(12);
  HyperLogLog c(12);
  HyperLogLog whole(12);
  FillRange(&a, 0, 40000, add);
  FillRange(&b, 30000, 70000, add);
  FillRange(&c, 60000, 100000, add);
  FillRange(&whole, 0, 100000, add);

  HyperLogLog left = a;
  ASSERT_TRUE(left.Merge(b).ok());
  ASSERT_TRUE(left.Merge(c).ok());
  HyperLogLog bc = b;
  ASSERT_TRUE(bc.Merge(c).ok());
  HyperLogLog right = a;
  ASSERT_TRUE(right.Merge(bc).ok());

  EXPECT_DOUBLE_EQ(left.Estimate(), right.Estimate());
  EXPECT_DOUBLE_EQ(left.Estimate(), whole.Estimate());
}

TEST(MergePropertyTest, KmvMergeIsAssociativeAndStreamEquivalent) {
  auto add = [](KmvSketch* s, uint64_t i) { s->Add(i); };
  KmvSketch a(512);
  KmvSketch b(512);
  KmvSketch c(512);
  KmvSketch whole(512);
  FillRange(&a, 0, 20000, add);
  FillRange(&b, 10000, 40000, add);
  FillRange(&c, 35000, 60000, add);
  FillRange(&whole, 0, 60000, add);

  KmvSketch left = a;
  ASSERT_TRUE(left.Merge(b).ok());
  ASSERT_TRUE(left.Merge(c).ok());
  KmvSketch bc = b;
  ASSERT_TRUE(bc.Merge(c).ok());
  KmvSketch right = a;
  ASSERT_TRUE(right.Merge(bc).ok());

  EXPECT_DOUBLE_EQ(left.Estimate(), right.Estimate());
  EXPECT_DOUBLE_EQ(left.Estimate(), whole.Estimate());
}

TEST(MergePropertyTest, CountMinMergeMatchesCombinedStream) {
  workload::ZipfGenerator zipf(5000, 1.1, 1);
  std::vector<uint64_t> stream;
  for (int i = 0; i < 60000; i++) stream.push_back(zipf.Next());

  CountMinSketch parts[3] = {CountMinSketch(1024, 4),
                             CountMinSketch(1024, 4),
                             CountMinSketch(1024, 4)};
  CountMinSketch whole(1024, 4);
  for (size_t i = 0; i < stream.size(); i++) {
    parts[i % 3].Add(stream[i]);
    whole.Add(stream[i]);
  }
  CountMinSketch merged = parts[0];
  ASSERT_TRUE(merged.Merge(parts[1]).ok());
  ASSERT_TRUE(merged.Merge(parts[2]).ok());
  for (uint64_t key = 0; key < 200; key++) {
    EXPECT_EQ(merged.Estimate(key), whole.Estimate(key)) << key;
  }
  EXPECT_EQ(merged.total_count(), whole.total_count());
}

TEST(MergePropertyTest, AmsMergeIsLinearUnderSplit) {
  auto add = [](AmsSketch* s, uint64_t i) { s->Add(i % 300); };
  AmsSketch a(5, 16);
  AmsSketch b(5, 16);
  AmsSketch whole(5, 16);
  FillRange(&a, 0, 30000, add);
  FillRange(&b, 30000, 60000, add);
  FillRange(&whole, 0, 60000, add);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.EstimateF2(), whole.EstimateF2());
}

TEST(MergePropertyTest, PcsaMergeIsIdempotent) {
  PcsaCounter a(128);
  for (uint64_t i = 0; i < 10000; i++) a.Add(i);
  PcsaCounter b = a;
  ASSERT_TRUE(b.Merge(a).ok());  // Self-merge must not change the estimate.
  EXPECT_DOUBLE_EQ(b.Estimate(), a.Estimate());
}

TEST(MergePropertyTest, LinearCounterUnionIsIdempotent) {
  LinearCounter a(1 << 14);
  for (uint64_t i = 0; i < 3000; i++) a.Add(i);
  LinearCounter b = a;
  ASSERT_TRUE(b.Union(a).ok());
  EXPECT_DOUBLE_EQ(b.Estimate(), a.Estimate());
}

TEST(MergePropertyTest, QDigestMergeOrderInsensitiveWithinError) {
  Rng rng(TestSeed() ^ 2);
  QDigest parts[3] = {QDigest(12, 100), QDigest(12, 100), QDigest(12, 100)};
  for (int i = 0; i < 30000; i++) {
    parts[i % 3].Add(static_cast<uint32_t>(rng.NextBounded(1 << 12)));
  }
  QDigest ab = parts[0];
  ASSERT_TRUE(ab.Merge(parts[1]).ok());
  ASSERT_TRUE(ab.Merge(parts[2]).ok());
  QDigest cb = parts[2];
  ASSERT_TRUE(cb.Merge(parts[1]).ok());
  ASSERT_TRUE(cb.Merge(parts[0]).ok());
  EXPECT_EQ(ab.count(), cb.count());
  // Compression is order-sensitive internally; answers agree within the
  // rank error bound (12/100 * n each side).
  for (double phi : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(static_cast<double>(ab.Quantile(phi)),
                static_cast<double>(cb.Quantile(phi)), 4096.0 * 0.25)
        << phi;
  }
}

// ----------------------------------------------------- Serialization fuzz
//
// Property: Deserialize must reject, never crash on, arbitrarily corrupted
// payloads — truncations, bit flips, random garbage.

TEST(SerializationFuzzTest, HllSurvivesCorruption) {
  HyperLogLog hll(10);
  for (uint64_t i = 0; i < 50000; i++) hll.Add(i);
  const std::vector<uint8_t> good = hll.Serialize();
  Rng rng(TestSeed() ^ 3);

  // Truncations at every prefix length (sampled).
  for (size_t len = 0; len < good.size(); len += 37) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto result = HyperLogLog::Deserialize(cut);  // Must not crash.
    if (result.ok()) {
      // Only acceptable if the prefix happens to be self-consistent —
      // with a fixed-size payload that means full length only.
      EXPECT_EQ(len, good.size());
    }
  }
  // Random bit flips: decode may succeed (registers are free-form bytes),
  // but must never crash and precision must stay in range.
  for (int trial = 0; trial < 200; trial++) {
    std::vector<uint8_t> mutated = good;
    const size_t at = rng.NextBounded(mutated.size());
    mutated[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    auto result = HyperLogLog::Deserialize(mutated);
    if (result.ok()) {
      EXPECT_GE(result.value().precision(), 4);
      EXPECT_LE(result.value().precision(), 18);
    }
  }
  // Pure garbage.
  for (int trial = 0; trial < 100; trial++) {
    std::vector<uint8_t> garbage(rng.NextBounded(64));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    HyperLogLog::Deserialize(garbage);  // Must not crash.
  }
}

TEST(SerializationFuzzTest, CmsSurvivesCorruption) {
  CountMinSketch cms(256, 4);
  workload::ZipfGenerator zipf(1000, 1.2, 5);
  for (int i = 0; i < 20000; i++) cms.Add(zipf.Next());
  const std::vector<uint8_t> good = cms.Serialize();
  Rng rng(TestSeed() ^ 6);

  for (size_t len = 0; len < good.size(); len += 53) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    CountMinSketch::Deserialize(cut);  // Must not crash.
  }
  for (int trial = 0; trial < 200; trial++) {
    std::vector<uint8_t> mutated = good;
    const size_t at = rng.NextBounded(mutated.size());
    mutated[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    auto result = CountMinSketch::Deserialize(mutated);
    if (result.ok()) {
      EXPECT_GE(result.value().width(), 1u);
      EXPECT_GE(result.value().depth(), 1u);
    }
  }
}

// ------------------------------------------------------------ Determinism
//
// Property: identical seeds => bit-identical behaviour, for every
// randomized structure (the reproducibility convention of the library).

TEST(DeterminismTest, SeededStructuresReproduceExactly) {
  for (int run = 0; run < 2; run++) {
    static double first_hll = 0;
    static uint64_t first_cms = 0;
    workload::ZipfGenerator zipf(10000, 1.2, 42);
    HyperLogLog hll(11);
    CountMinSketch cms(512, 4, true);
    for (int i = 0; i < 50000; i++) {
      const uint64_t item = zipf.Next();
      hll.Add(item);
      cms.Add(item);
    }
    if (run == 0) {
      first_hll = hll.Estimate();
      first_cms = cms.Estimate(uint64_t{0});
    } else {
      EXPECT_DOUBLE_EQ(hll.Estimate(), first_hll);
      EXPECT_EQ(cms.Estimate(uint64_t{0}), first_cms);
    }
  }
}

// --------------------------------------------------------- DyadicCountMin

TEST(DyadicCountMinTest, RangeCountsMatchExactWithinBound) {
  DyadicCountMin dcm(16, 4096, 5);
  Rng rng(TestSeed() ^ 7);
  std::vector<uint32_t> data;
  const int kN = 200000;
  for (int i = 0; i < kN; i++) {
    const uint32_t v = static_cast<uint32_t>(std::clamp(
        32768.0 + 8000.0 * rng.NextGaussian(), 0.0, 65535.0));
    dcm.Add(v);
    data.push_back(v);
  }
  auto exact_range = [&](uint32_t lo, uint32_t hi) {
    uint64_t count = 0;
    for (uint32_t v : data) {
      if (v >= lo && v <= hi) count++;
    }
    return count;
  };
  // Error bound ~ 2 * 16 levels * (e/4096) * n ~ 2% of n.
  const double bound = 2.0 * 16.0 * (2.718 / 4096.0) * kN;
  for (auto [lo, hi] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 65535}, {30000, 35000}, {0, 32768}, {40000, 41000},
           {12345, 54321}}) {
    const uint64_t exact = exact_range(lo, hi);
    const uint64_t est = dcm.EstimateRange(lo, hi);
    EXPECT_GE(est, exact);                        // CM never undercounts.
    EXPECT_LE(static_cast<double>(est - exact), bound)
        << "[" << lo << ", " << hi << "]";
  }
}

TEST(DyadicCountMinTest, QuantilesFromRangeCounts) {
  DyadicCountMin dcm(16, 4096, 5);
  Rng rng(TestSeed() ^ 8);
  std::vector<uint32_t> data;
  for (int i = 0; i < 100000; i++) {
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(1 << 16));
    dcm.Add(v);
    data.push_back(v);
  }
  std::sort(data.begin(), data.end());
  for (double phi : {0.1, 0.5, 0.9}) {
    const uint32_t answer = dcm.Quantile(phi);
    const double rank = static_cast<double>(
        std::upper_bound(data.begin(), data.end(), answer) - data.begin());
    EXPECT_NEAR(rank / data.size(), phi, 0.03) << phi;
  }
}

TEST(DyadicCountMinTest, SingleValueRangeMatchesPoint) {
  DyadicCountMin dcm(12, 1024, 4);
  for (int i = 0; i < 1000; i++) dcm.Add(777);
  EXPECT_EQ(dcm.EstimateRange(777, 777), dcm.EstimatePoint(777));
  EXPECT_GE(dcm.EstimatePoint(777), 1000u);
}

// --------------------------------------------------- DeletableBloomFilter

TEST(DeletableBloomFilterTest, BasicMembership) {
  DeletableBloomFilter filter(1 << 16, 4, 1024);
  for (uint64_t i = 0; i < 2000; i++) filter.Add(i);
  for (uint64_t i = 0; i < 2000; i++) EXPECT_TRUE(filter.Contains(i));
}

TEST(DeletableBloomFilterTest, MostKeysDeletableAtModerateLoad) {
  // The paper's headline: at moderate load with enough regions, the large
  // majority of keys can be deleted.
  DeletableBloomFilter filter(1 << 16, 4, 4096);
  const uint64_t kKeys = 3000;
  for (uint64_t i = 0; i < kKeys; i++) filter.Add(i);
  uint64_t deleted = 0;
  uint64_t gone = 0;
  for (uint64_t i = 0; i < kKeys; i++) {
    if (filter.Remove(i)) {
      deleted++;
      if (!filter.Contains(i)) gone++;
    }
  }
  EXPECT_GT(static_cast<double>(deleted) / kKeys, 0.9);
  EXPECT_GT(static_cast<double>(gone) / deleted, 0.5);
}

TEST(DeletableBloomFilterTest, DeletionNeverCausesFalseNegativesForOthers) {
  DeletableBloomFilter filter(1 << 15, 4, 2048);
  for (uint64_t i = 0; i < 2000; i++) filter.Add(i);
  // Delete the first half; the second half must all remain present.
  for (uint64_t i = 0; i < 1000; i++) filter.Remove(i);
  for (uint64_t i = 1000; i < 2000; i++) {
    EXPECT_TRUE(filter.Contains(i)) << i;
  }
}

TEST(DeletableBloomFilterTest, CollisionFractionGrowsWithLoad) {
  DeletableBloomFilter filter(1 << 14, 4, 512);
  double prev = 0.0;
  for (int phase = 0; phase < 4; phase++) {
    for (uint64_t i = phase * 1000ull; i < (phase + 1) * 1000ull; i++) {
      filter.Add(i);
    }
    const double fraction = filter.CollidedRegionFraction();
    EXPECT_GE(fraction, prev);
    prev = fraction;
  }
  EXPECT_GT(prev, 0.1);
}

// ---------------------------------------------------------------------------
// SketchBlob contract: every catalog sketch must (a) roundtrip through the
// versioned envelope with identical answers, and (b) give the same (or
// boundedly-worse, per each algorithm's merge guarantee) answers when a
// stream is sharded across instances and the shard snapshots are merged
// back through state::MergeBlob — the invariant the platform shard-combiner
// and the Lambda serving layer both rely on.
// ---------------------------------------------------------------------------

constexpr size_t kShards = 3;

// Roundtrips through the envelope; a decode failure fails the test here and
// aborts via Result::value() rather than returning a bogus sketch.
template <typename T>
T BlobRoundTrip(const T& sketch) {
  Result<T> back = state::FromBlob<T>(state::ToBlob(sketch));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return std::move(back).value();
}

std::vector<uint64_t> UniformKeys(size_t n, uint64_t domain, uint64_t salt) {
  Rng rng(TestSeed() ^ salt);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.NextBounded(domain);
  return keys;
}

std::vector<uint64_t> ZipfKeys(size_t n, uint64_t domain, uint64_t salt) {
  workload::ZipfGenerator zipf(domain, 1.2, TestSeed() ^ salt);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = zipf.Next();
  return keys;
}

std::vector<std::vector<uint64_t>> BothWorkloads(size_t n, uint64_t domain) {
  return {UniformKeys(n, domain, 0x5ead1), ZipfKeys(n, domain, 0x5ead2)};
}

// Splits `keys` round-robin across kShards instances and also feeds a
// single reference instance; returns {merged-from-blobs, single}.
template <typename T, typename Make, typename AddFn>
std::pair<T, T> ShardMerge(const std::vector<uint64_t>& keys, Make make,
                           AddFn add) {
  T single = make();
  std::vector<T> shards;
  for (size_t s = 0; s < kShards; s++) shards.push_back(make());
  for (size_t i = 0; i < keys.size(); i++) {
    add(shards[i % kShards], keys[i], i);
    add(single, keys[i], i);
  }
  T merged = make();
  for (const T& shard : shards) {
    Status st = state::MergeBlob(merged, state::ToBlob(shard));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return {std::move(merged), std::move(single)};
}

// Checks that `v` is a valid phi-quantile of `sorted` up to `tol` rank
// error. Tied values occupy a rank *interval* [rank of first occurrence,
// rank of last], so the assertion is against the interval, not a point —
// under Zipf the modal value alone can span 20% of the CDF.
void ExpectRankNear(const std::vector<double>& sorted, double v, double phi,
                    double tol) {
  const double lo =
      static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), v) -
                          sorted.begin()) /
      sorted.size();
  const double hi =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), v) -
                          sorted.begin()) /
      sorted.size();
  EXPECT_GE(phi, lo - tol) << "value " << v << " at phi " << phi;
  EXPECT_LE(phi, hi + tol) << "value " << v << " at phi " << phi;
}

template <typename T, typename Make>
void ExpectExactCardinalityShardMerge(const std::vector<uint64_t>& keys,
                                      Make make) {
  auto add = [](T& s, uint64_t k, size_t) { s.Add(k); };
  auto [merged, single] = ShardMerge<T>(keys, make, add);
  // Register/bitmap union is order- and partition-insensitive: exact.
  EXPECT_DOUBLE_EQ(merged.Estimate(), single.Estimate());
  EXPECT_DOUBLE_EQ(BlobRoundTrip(single).Estimate(), single.Estimate());
}

TEST(SketchBlobPropertyTest, CardinalityShardMergeMatchesSingleExactly) {
  for (const auto& keys : BothWorkloads(20000, 5000)) {
    ExpectExactCardinalityShardMerge<HyperLogLog>(
        keys, [] { return HyperLogLog(12); });
    ExpectExactCardinalityShardMerge<KmvSketch>(keys,
                                                [] { return KmvSketch(256); });
    ExpectExactCardinalityShardMerge<PcsaCounter>(
        keys, [] { return PcsaCounter(64); });
    ExpectExactCardinalityShardMerge<LinearCounter>(
        keys, [] { return LinearCounter(1 << 16); });
    ExpectExactCardinalityShardMerge<LogLogCounter>(
        keys, [] { return LogLogCounter(12); });
  }
}

TEST(SketchBlobPropertyTest, SlidingHllShardMergeOnSharedTimeline) {
  const uint64_t kMaxWindow = 4096;
  for (const auto& keys : BothWorkloads(8000, 2000)) {
    // Timestamps are global stream positions (the shared-timeline contract
    // documented on SlidingHyperLogLog::Merge).
    auto make = [&] { return SlidingHyperLogLog(12, kMaxWindow); };
    auto add = [](SlidingHyperLogLog& s, uint64_t k, size_t i) {
      s.Add(k, i + 1);
    };
    auto [merged, single] = ShardMerge<SlidingHyperLogLog>(keys, make, add);
    const uint64_t now = keys.size();
    for (uint64_t window : {kMaxWindow, kMaxWindow / 2, kMaxWindow / 8}) {
      EXPECT_DOUBLE_EQ(merged.Estimate(now, window),
                       single.Estimate(now, window))
          << "window " << window;
    }
    SlidingHyperLogLog rt = BlobRoundTrip(single);
    EXPECT_DOUBLE_EQ(rt.Estimate(now, kMaxWindow),
                     single.Estimate(now, kMaxWindow));
  }
}

TEST(SketchBlobPropertyTest, LinearFrequencySketchesShardMergeExactly) {
  for (const auto& keys : BothWorkloads(20000, 2000)) {
    {
      // Plain (non-conservative) Count-Min is linear: cells simply add.
      auto make = [] { return CountMinSketch(512, 4); };
      auto add = [](CountMinSketch& s, uint64_t k, size_t) { s.Add(k); };
      auto [merged, single] = ShardMerge<CountMinSketch>(keys, make, add);
      EXPECT_EQ(merged.total_count(), single.total_count());
      CountMinSketch rt = BlobRoundTrip(single);
      for (uint64_t k = 0; k < 200; k++) {
        EXPECT_EQ(merged.Estimate(k), single.Estimate(k)) << k;
        EXPECT_EQ(rt.Estimate(k), single.Estimate(k)) << k;
      }
    }
    {
      auto make = [] { return CountSketch(512, 5); };
      auto add = [](CountSketch& s, uint64_t k, size_t) { s.Add(k); };
      auto [merged, single] = ShardMerge<CountSketch>(keys, make, add);
      EXPECT_DOUBLE_EQ(merged.EstimateF2(), single.EstimateF2());
      CountSketch rt = BlobRoundTrip(single);
      for (uint64_t k = 0; k < 200; k++) {
        EXPECT_EQ(merged.Estimate(k), single.Estimate(k)) << k;
        EXPECT_EQ(rt.Estimate(k), single.Estimate(k)) << k;
      }
    }
    {
      auto make = [] { return AmsSketch(5, 64); };
      auto add = [](AmsSketch& s, uint64_t k, size_t) { s.Add(k); };
      auto [merged, single] = ShardMerge<AmsSketch>(keys, make, add);
      EXPECT_DOUBLE_EQ(merged.EstimateF2(), single.EstimateF2());
      EXPECT_DOUBLE_EQ(BlobRoundTrip(single).EstimateF2(),
                       single.EstimateF2());
    }
  }
}

TEST(SketchBlobPropertyTest, DyadicCountMinShardMergeExactRanges) {
  for (const auto& keys : BothWorkloads(20000, 1 << 12)) {
    auto make = [] { return DyadicCountMin(12, 512, 4); };
    auto add = [](DyadicCountMin& s, uint64_t k, size_t) {
      s.Add(static_cast<uint32_t>(k));
    };
    auto [merged, single] = ShardMerge<DyadicCountMin>(keys, make, add);
    DyadicCountMin rt = BlobRoundTrip(single);
    const std::pair<uint32_t, uint32_t> ranges[] = {
        {0, 0}, {0, 100}, {17, 1000}, {0, (1u << 12) - 1}, {2000, 4000}};
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(merged.EstimateRange(lo, hi), single.EstimateRange(lo, hi));
      EXPECT_EQ(rt.EstimateRange(lo, hi), single.EstimateRange(lo, hi));
    }
  }
}

TEST(SketchBlobPropertyTest, SpaceSavingShardMergeKeepsGuarantees) {
  const size_t kN = 30000;
  const size_t kCapacity = 128;
  std::vector<uint64_t> keys = ZipfKeys(kN, 500, 0x70b1);
  std::vector<uint64_t> true_count(500, 0);
  for (uint64_t k : keys) true_count[k]++;

  auto make = [] { return SpaceSaving<uint64_t>(kCapacity); };
  auto add = [](SpaceSaving<uint64_t>& s, uint64_t k, size_t) { s.Add(k); };
  auto [merged, single] = ShardMerge<SpaceSaving<uint64_t>>(keys, make, add);
  EXPECT_EQ(merged.count(), kN);
  EXPECT_EQ(single.count(), kN);
  // The mergeable-summaries guarantee survives the shard merge: estimates
  // stay overestimates and the per-key error bound stays honest.
  for (uint64_t k = 0; k < 5; k++) {
    EXPECT_GE(merged.Estimate(k), true_count[k]) << k;
    EXPECT_LE(merged.Estimate(k) - merged.ErrorOf(k), true_count[k]) << k;
  }
  // The dominant key under Zipf(1.2) must survive sharding as top-1.
  ASSERT_FALSE(merged.TopK(1).empty());
  EXPECT_EQ(merged.TopK(1)[0].key, single.TopK(1)[0].key);

  SpaceSaving<uint64_t> rt = BlobRoundTrip(single);
  EXPECT_EQ(rt.count(), single.count());
  const auto top_rt = rt.TopK(10);
  const auto top_single = single.TopK(10);
  ASSERT_EQ(top_rt.size(), top_single.size());
  for (size_t i = 0; i < top_rt.size(); i++) {
    EXPECT_EQ(top_rt[i].key, top_single[i].key);
    EXPECT_EQ(top_rt[i].estimate, top_single[i].estimate);
  }
}

TEST(SketchBlobPropertyTest, SpaceSavingStringRoundTrip) {
  SpaceSaving<std::string> sketch(64);
  for (uint64_t k : ZipfKeys(5000, 300, 0x57f1)) {
    sketch.Add("key-" + std::to_string(k));
  }
  SpaceSaving<std::string> rt = BlobRoundTrip(sketch);
  EXPECT_EQ(rt.count(), sketch.count());
  const auto a = rt.TopK(10);
  const auto b = sketch.TopK(10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
  }
}

TEST(SketchBlobPropertyTest, MisraGriesShardMergeKeepsGuarantees) {
  const size_t kN = 30000;
  std::vector<uint64_t> keys = ZipfKeys(kN, 500, 0x316a);
  std::vector<uint64_t> true_count(500, 0);
  for (uint64_t k : keys) true_count[k]++;

  auto make = [] { return MisraGries<uint64_t>(128); };
  auto add = [](MisraGries<uint64_t>& s, uint64_t k, size_t) { s.Add(k); };
  auto [merged, single] = ShardMerge<MisraGries<uint64_t>>(keys, make, add);
  EXPECT_EQ(merged.count(), kN);
  for (uint64_t k = 0; k < 5; k++) {
    EXPECT_LE(merged.Estimate(k), true_count[k]) << k;
    EXPECT_GE(merged.Estimate(k) + merged.MaxError(), true_count[k]) << k;
  }

  MisraGries<std::string> str_sketch(64);
  for (uint64_t k : keys) str_sketch.Add(std::to_string(k));
  MisraGries<std::string> rt = BlobRoundTrip(str_sketch);
  EXPECT_EQ(rt.count(), str_sketch.count());
  for (uint64_t k = 0; k < 10; k++) {
    EXPECT_EQ(rt.Estimate(std::to_string(k)),
              str_sketch.Estimate(std::to_string(k)));
  }
}

TEST(SketchBlobPropertyTest, QuantileSummariesShardMergeWithinRankBounds) {
  for (const auto& keys : BothWorkloads(20000, 10000)) {
    std::vector<double> sorted(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      sorted[i] = static_cast<double>(keys[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    const double kPhis[] = {0.1, 0.5, 0.9, 0.99};

    {
      auto make = [] { return TDigest(100.0); };
      auto add = [](TDigest& s, uint64_t k, size_t) {
        s.Add(static_cast<double>(k));
      };
      auto [merged, single] = ShardMerge<TDigest>(keys, make, add);
      EXPECT_DOUBLE_EQ(static_cast<double>(merged.count()),
                       static_cast<double>(single.count()));
      for (double phi : kPhis) {
        ExpectRankNear(sorted, merged.Quantile(phi), phi, 0.05);
      }
      TDigest rt = BlobRoundTrip(single);
      for (double phi : kPhis) {
        EXPECT_DOUBLE_EQ(rt.Quantile(phi), single.Quantile(phi)) << phi;
      }
    }
    {
      const double kEps = 0.02;
      auto make = [&] { return GkQuantile(kEps); };
      auto add = [](GkQuantile& s, uint64_t k, size_t) {
        s.Add(static_cast<double>(k));
      };
      auto [merged, single] = ShardMerge<GkQuantile>(keys, make, add);
      // GK merge sums the sides' eps*n budgets: kShards-way merge widens
      // the rank guarantee to kShards * eps.
      const double tol = kShards * kEps + 0.01;
      for (double phi : kPhis) {
        ExpectRankNear(sorted, merged.Query(phi), phi, tol);
      }
      GkQuantile rt = BlobRoundTrip(single);
      for (double phi : kPhis) {
        EXPECT_DOUBLE_EQ(rt.Query(phi), single.Query(phi)) << phi;
      }
    }
    {
      const std::vector<QuantileTarget> targets = {
          {0.5, 0.02}, {0.9, 0.01}, {0.99, 0.005}};
      auto make = [&] { return CkmsQuantile(targets); };
      auto add = [](CkmsQuantile& s, uint64_t k, size_t) {
        s.Add(static_cast<double>(k));
      };
      auto [merged, single] = ShardMerge<CkmsQuantile>(keys, make, add);
      for (const QuantileTarget& t : targets) {
        const double tol = kShards * 2.0 * t.error + 0.01;
        ExpectRankNear(sorted, merged.Query(t.quantile), t.quantile, tol);
      }
      CkmsQuantile rt = BlobRoundTrip(single);
      for (const QuantileTarget& t : targets) {
        EXPECT_DOUBLE_EQ(rt.Query(t.quantile), single.Query(t.quantile));
      }
    }
    {
      auto make = [] { return QDigest(14, 512); };
      auto add = [](QDigest& s, uint64_t k, size_t) {
        s.Add(static_cast<uint32_t>(k));
      };
      auto [merged, single] = ShardMerge<QDigest>(keys, make, add);
      // Rank error is (universe_bits/compression)*n per summary and merge
      // errors compound, so keep the tolerance loose.
      for (double phi : kPhis) {
        ExpectRankNear(sorted, merged.Quantile(phi), phi, 0.15);
      }
      QDigest rt = BlobRoundTrip(single);
      for (double phi : kPhis) {
        EXPECT_EQ(rt.Quantile(phi), single.Quantile(phi)) << phi;
      }
    }
  }
}

// Rank-merge invariant (rank_merge.h): a GK or CKMS summary merged from
// 2–8 shards must keep the GK tuple invariant against the exact stream, not
// just answer within a loose tolerance. The tuples are decoded straight
// from the merged SketchBlob: eps (GK) or the target list (CKMS), then
// count, then the value-ordered (value, g, delta) tuples (gk_quantile.h).
struct RankTuple {
  double value = 0;
  uint64_t g = 0;
  uint64_t delta = 0;
};

std::vector<RankTuple> DecodeRankTuples(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  state::BlobHeader header;
  EXPECT_TRUE(state::ReadBlobHeader(r, &header).ok());
  double f64 = 0;
  if (header.type_id == state::TypeId::kGkQuantile) {
    EXPECT_TRUE(r.GetDouble(&f64).ok());  // eps
  } else {
    EXPECT_EQ(header.type_id, state::TypeId::kCkmsQuantile);
    uint64_t targets = 0;
    EXPECT_TRUE(r.GetVarint(&targets).ok());
    for (uint64_t i = 0; i < 2 * targets; i++) {
      EXPECT_TRUE(r.GetDouble(&f64).ok());  // quantile, error
    }
  }
  uint64_t count = 0;
  uint64_t size = 0;
  EXPECT_TRUE(r.GetVarint(&count).ok());
  EXPECT_TRUE(r.GetVarint(&size).ok());
  std::vector<RankTuple> tuples(size);
  for (RankTuple& t : tuples) {
    EXPECT_TRUE(r.GetDouble(&t.value).ok());
    EXPECT_TRUE(r.GetVarint(&t.g).ok());
    EXPECT_TRUE(r.GetVarint(&t.delta).ok());
  }
  EXPECT_TRUE(r.AtEnd());
  return tuples;
}

// 1-based rank interval of `v` in `sorted`: ties occupy [#(< v) + 1, #(<= v)].
std::pair<uint64_t, uint64_t> RankInterval(const std::vector<double>& sorted,
                                           double v) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  return {static_cast<uint64_t>(lo - sorted.begin()) + 1,
          static_cast<uint64_t>(hi - sorted.begin())};
}

// rmin_i <= rank(v_i) <= rmin_i + delta_i for every tuple, with rank(v_i)
// any rank of the tied run of v_i; the g's sum to n.
void ExpectRankInvariant(const std::vector<RankTuple>& tuples,
                         const std::vector<double>& sorted) {
  uint64_t rmin = 0;
  for (const RankTuple& t : tuples) {
    rmin += t.g;
    const auto [lo, hi] = RankInterval(sorted, t.value);
    ASSERT_LE(rmin, hi) << "rmin above the true rank of " << t.value;
    ASSERT_GE(rmin + t.delta, lo) << "rmax below the true rank of " << t.value;
  }
  EXPECT_EQ(rmin, sorted.size());
}

// The answer's true rank interval lies within `max_error` of ceil(phi*n).
void ExpectRankErrorAtMost(const std::vector<double>& sorted, double v,
                           double phi, double max_error) {
  const double target = std::ceil(phi * static_cast<double>(sorted.size()));
  const auto [lo, hi] = RankInterval(sorted, v);
  EXPECT_LE(static_cast<double>(lo) - target, max_error)
      << "value " << v << " at phi " << phi;
  EXPECT_LE(target - static_cast<double>(hi), max_error)
      << "value " << v << " at phi " << phi;
}

// Contiguous shards: on sorted input each shard covers a disjoint value
// range, the case where a wrong combine misplaces ranks the most.
template <typename T, typename Make>
T MergeContiguousShards(const std::vector<double>& stream, size_t shards,
                        Make make) {
  T merged = make();
  const size_t per = (stream.size() + shards - 1) / shards;
  for (size_t s = 0; s < shards; s++) {
    T shard = make();
    for (size_t i = s * per; i < std::min(stream.size(), (s + 1) * per); i++) {
      shard.Add(stream[i]);
    }
    const Status st = state::MergeBlob(merged, state::ToBlob(shard));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return merged;
}

TEST(SketchBlobPropertyTest, RankMergeKeepsGkInvariant) {
  constexpr size_t kN = 20000;
  std::vector<double> zipf;
  for (uint64_t k : ZipfKeys(kN, 10000, 0x4a11)) {
    zipf.push_back(static_cast<double>(k));
  }
  std::vector<double> ascending(kN);
  for (size_t i = 0; i < kN; i++) ascending[i] = static_cast<double>(i);
  const std::vector<double> descending(ascending.rbegin(), ascending.rend());
  const struct {
    const char* name;
    const std::vector<double>* stream;
  } kWorkloads[] = {
      {"zipf", &zipf}, {"sorted", &ascending}, {"reverse", &descending}};
  const double kPhis[] = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};
  const double kEps = 0.01;
  const std::vector<QuantileTarget> kTargets = {
      {0.5, 0.01}, {0.9, 0.005}, {0.99, 0.001}};

  for (const auto& workload : kWorkloads) {
    std::vector<double> sorted = *workload.stream;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    for (size_t shards = 2; shards <= 8; shards++) {
      SCOPED_TRACE(std::string(workload.name) + ", " +
                   std::to_string(shards) + " shards");
      {
        SCOPED_TRACE("gk");
        GkQuantile gk = MergeContiguousShards<GkQuantile>(
            *workload.stream, shards, [&] { return GkQuantile(kEps); });
        ExpectRankInvariant(DecodeRankTuples(state::ToBlob(gk)), sorted);
        for (double phi : kPhis) {
          ExpectRankErrorAtMost(sorted, gk.Query(phi), phi, kEps * n);
        }
      }
      {
        SCOPED_TRACE("ckms");
        CkmsQuantile ckms = MergeContiguousShards<CkmsQuantile>(
            *workload.stream, shards, [&] { return CkmsQuantile(kTargets); });
        ExpectRankInvariant(DecodeRankTuples(state::ToBlob(ckms)), sorted);
        for (const QuantileTarget& t : kTargets) {
          ExpectRankErrorAtMost(sorted, ckms.Query(t.quantile), t.quantile,
                                t.error * n);
        }
      }
    }
  }
}

TEST(SketchBlobPropertyTest, ExponentialHistogramSharedTimelineShardMerge) {
  const uint64_t kWindow = 2048;
  const uint32_t kK = 16;
  const size_t kN = 8192;
  for (const auto& keys : BothWorkloads(kN, 64)) {
    ExponentialHistogram single(kWindow, kK);
    std::vector<ExponentialHistogram> shards(kShards,
                                             ExponentialHistogram(kWindow, kK));
    uint64_t true_in_window = 0;
    for (size_t i = 0; i < keys.size(); i++) {
      const bool bit = (keys[i] % 2) == 0;
      single.Add(bit);
      // Shared timeline: every shard sees every position, but each 1 is
      // owned by exactly one shard (the key-sharded topology pattern).
      for (size_t s = 0; s < kShards; s++) {
        shards[s].Add(s == i % kShards ? bit : false);
      }
      if (bit && i + kWindow >= keys.size()) true_in_window++;
    }
    ExponentialHistogram merged(kWindow, kK);
    for (const auto& shard : shards) {
      Status st = state::MergeBlob(merged, state::ToBlob(shard));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    // The DGIM bracketing invariant must survive the merge...
    EXPECT_LE(merged.LowerBound(), true_in_window);
    EXPECT_GE(merged.UpperBound(), true_in_window);
    // ...and the estimate stays within a (slightly widened) 1/k band.
    const double tol = 2.0 / kK * static_cast<double>(true_in_window) + 4.0;
    EXPECT_NEAR(static_cast<double>(merged.Estimate()),
                static_cast<double>(true_in_window), tol);
    EXPECT_NEAR(static_cast<double>(single.Estimate()),
                static_cast<double>(true_in_window), tol);

    ExponentialHistogram rt = BlobRoundTrip(single);
    EXPECT_EQ(rt.Estimate(), single.Estimate());
    EXPECT_EQ(rt.UpperBound(), single.UpperBound());
    EXPECT_EQ(rt.LowerBound(), single.LowerBound());
  }
}

TEST(SketchBlobPropertyTest, EhSumSharedTimelineShardMerge) {
  const uint64_t kWindow = 2048;
  const uint32_t kK = 16;
  const uint32_t kValueBits = 4;
  const size_t kN = 8192;
  for (const auto& keys : BothWorkloads(kN, 1 << kValueBits)) {
    EhSum single(kWindow, kK, kValueBits);
    std::vector<EhSum> shards(kShards, EhSum(kWindow, kK, kValueBits));
    uint64_t true_sum = 0;
    for (size_t i = 0; i < keys.size(); i++) {
      const uint32_t value = static_cast<uint32_t>(keys[i]);
      single.Add(value);
      for (size_t s = 0; s < kShards; s++) {
        shards[s].Add(s == i % kShards ? value : 0);
      }
      if (i + kWindow >= keys.size()) true_sum += value;
    }
    EhSum merged(kWindow, kK, kValueBits);
    for (const auto& shard : shards) {
      Status st = state::MergeBlob(merged, state::ToBlob(shard));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    // Per-bit-slice DGIM error bounds add across the value_bits slices.
    const double tol =
        3.0 / kK * static_cast<double>(true_sum) + (1 << kValueBits);
    EXPECT_NEAR(static_cast<double>(merged.Estimate()),
                static_cast<double>(true_sum), tol);
    EXPECT_NEAR(static_cast<double>(single.Estimate()),
                static_cast<double>(true_sum), tol);

    EhSum rt = BlobRoundTrip(single);
    EXPECT_EQ(rt.Estimate(), single.Estimate());
    EXPECT_EQ(rt.NumBuckets(), single.NumBuckets());
  }
}

TEST(SketchBlobPropertyTest, MicroClusterShardMergeMatchesSingle) {
  Rng rng(TestSeed() ^ 0xc1u);
  const size_t kDim = 3;
  const size_t kPoints = 3000;
  MicroCluster single;
  single.ids = {0, 1, 2};
  std::vector<MicroCluster> shards(kShards);
  for (size_t s = 0; s < kShards; s++) {
    shards[s].ids = {static_cast<uint32_t>(s)};
  }
  for (size_t i = 0; i < kPoints; i++) {
    Point p(kDim);
    for (double& x : p) x = rng.NextGaussian();
    single.Absorb(p, static_cast<double>(i));
    shards[i % kShards].Absorb(p, static_cast<double>(i));
  }
  MicroCluster merged;
  for (const auto& shard : shards) {
    Status st = state::MergeBlob(merged, state::ToBlob(shard));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(merged.n, single.n);
  EXPECT_EQ(merged.ids, single.ids);
  const Point ca = merged.Centroid();
  const Point cb = single.Centroid();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t j = 0; j < ca.size(); j++) {
    EXPECT_NEAR(ca[j], cb[j], 1e-9) << j;
  }
  EXPECT_NEAR(merged.Radius(), single.Radius(), 1e-9);
  EXPECT_NEAR(merged.MeanTimestamp(), single.MeanTimestamp(), 1e-9);

  MicroCluster rt = BlobRoundTrip(single);
  EXPECT_EQ(rt.n, single.n);
  EXPECT_EQ(rt.ids, single.ids);
  EXPECT_EQ(rt.linear_sum, single.linear_sum);
  EXPECT_EQ(rt.squared_sum, single.squared_sum);
  EXPECT_EQ(rt.timestamp_sum, single.timestamp_sum);
  EXPECT_EQ(rt.timestamp_sq, single.timestamp_sq);
}

// ---------------------------------------------------------------------------
// Envelope hardening: malformed SketchBlobs must map to typed errors, never
// UB — mirroring the torn-checkpoint edge cases of the chaos suite.
// ---------------------------------------------------------------------------

// Builds a syntactically valid envelope around an arbitrary payload.
std::vector<uint8_t> WrapPayload(state::TypeId type, uint16_t version,
                                 const std::vector<uint8_t>& payload) {
  ByteWriter w;
  w.PutU32(state::kBlobMagic);
  w.PutU16(static_cast<uint16_t>(type));
  w.PutU16(version);
  w.PutBytes(payload.data(), payload.size());
  return w.TakeBytes();
}

TEST(BlobEnvelopeTest, PeekReportsTypeAndVersion) {
  HyperLogLog h(10);
  h.Add(uint64_t{42});
  Result<state::BlobHeader> header = state::PeekBlobHeader(state::ToBlob(h));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type_id, state::TypeId::kHyperLogLog);
  EXPECT_EQ(header.value().version, HyperLogLog::kStateVersion);
}

TEST(BlobEnvelopeTest, RejectsBadMagicTypeVersionAndTrailingBytes) {
  HyperLogLog h(10);
  for (uint64_t k = 0; k < 100; k++) h.Add(k);
  const std::vector<uint8_t> blob = state::ToBlob(h);

  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(state::FromBlob<HyperLogLog>(bad_magic).status().code(),
            StatusCode::kCorruption);

  // A blob of one type handed to another sketch's FromBlob is a caller
  // error, not corruption.
  EXPECT_EQ(state::FromBlob<CountMinSketch>(blob).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(state::FromBlob<KmvSketch>(blob).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<uint8_t> wrong_version = blob;
  wrong_version[6] ^= 0x01;  // version is the u16 at offset 6
  EXPECT_EQ(state::FromBlob<HyperLogLog>(wrong_version).status().code(),
            StatusCode::kCorruption);

  std::vector<uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_EQ(state::FromBlob<HyperLogLog>(trailing).status().code(),
            StatusCode::kCorruption);

  EXPECT_EQ(state::FromBlob<HyperLogLog>({}).status().code(),
            StatusCode::kCorruption);
}

template <typename T>
void ExpectAllTruncationsRejected(const T& sketch) {
  const std::vector<uint8_t> blob = state::ToBlob(sketch);
  for (size_t len = 0; len < blob.size(); len++) {
    const std::vector<uint8_t> prefix(blob.begin(), blob.begin() + len);
    Result<T> r = state::FromBlob<T>(prefix);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << "/" << blob.size()
                         << " accepted";
  }
}

TEST(BlobEnvelopeTest, EveryTruncationOfEveryContractTypeIsRejected) {
  // Small geometries keep the all-prefixes sweep cheap.
  const std::vector<uint64_t> keys = ZipfKeys(500, 100, 0x7a1);
  {
    HyperLogLog s(4);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    SlidingHyperLogLog s(4, 256);
    for (size_t i = 0; i < keys.size(); i++) s.Add(keys[i], i + 1);
    ExpectAllTruncationsRejected(s);
  }
  {
    KmvSketch s(16);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    PcsaCounter s(8);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    LinearCounter s(256);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    LogLogCounter s(4);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    CountMinSketch s(32, 3);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    CountSketch s(32, 3);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    DyadicCountMin s(8, 32, 2);
    for (uint64_t k : keys) s.Add(static_cast<uint32_t>(k % 256));
    ExpectAllTruncationsRejected(s);
  }
  {
    SpaceSaving<uint64_t> s(16);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    SpaceSaving<std::string> s(16);
    for (uint64_t k : keys) s.Add(std::to_string(k));
    ExpectAllTruncationsRejected(s);
  }
  {
    MisraGries<uint64_t> s(16);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    MisraGries<std::string> s(16);
    for (uint64_t k : keys) s.Add(std::to_string(k));
    ExpectAllTruncationsRejected(s);
  }
  {
    TDigest s(20.0);
    for (uint64_t k : keys) s.Add(static_cast<double>(k));
    ExpectAllTruncationsRejected(s);
  }
  {
    GkQuantile s(0.1);
    for (uint64_t k : keys) s.Add(static_cast<double>(k));
    ExpectAllTruncationsRejected(s);
  }
  {
    CkmsQuantile s({{0.5, 0.05}, {0.9, 0.02}});
    for (uint64_t k : keys) s.Add(static_cast<double>(k));
    ExpectAllTruncationsRejected(s);
  }
  {
    QDigest s(8, 16);
    for (uint64_t k : keys) s.Add(static_cast<uint32_t>(k % 256));
    ExpectAllTruncationsRejected(s);
  }
  {
    AmsSketch s(3, 16);
    for (uint64_t k : keys) s.Add(k);
    ExpectAllTruncationsRejected(s);
  }
  {
    ExponentialHistogram s(128, 4);
    for (uint64_t k : keys) s.Add(k % 2 == 0);
    ExpectAllTruncationsRejected(s);
  }
  {
    EhSum s(128, 4, 4);
    for (uint64_t k : keys) s.Add(static_cast<uint32_t>(k % 16));
    ExpectAllTruncationsRejected(s);
  }
  {
    MicroCluster s;
    s.ids = {1, 5, 9};
    for (size_t i = 0; i < 50; i++) {
      s.Absorb({static_cast<double>(i), 1.0}, static_cast<double>(i));
    }
    ExpectAllTruncationsRejected(s);
  }
}

TEST(BlobEnvelopeTest, MergeBlobRejectsParameterMismatch) {
  {
    HyperLogLog a(10), b(12);
    a.Add(uint64_t{1});
    b.Add(uint64_t{2});
    EXPECT_EQ(state::MergeBlob(a, state::ToBlob(b)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    CountMinSketch a(256, 4), b(512, 4);
    EXPECT_EQ(state::MergeBlob(a, state::ToBlob(b)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    GkQuantile a(0.01), b(0.02);
    a.Add(1.0);
    b.Add(2.0);
    EXPECT_EQ(state::MergeBlob(a, state::ToBlob(b)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    ExponentialHistogram a(1024, 8), b(2048, 8);
    EXPECT_EQ(state::MergeBlob(a, state::ToBlob(b)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    QDigest a(12, 64), b(10, 64);
    EXPECT_EQ(state::MergeBlob(a, state::ToBlob(b)).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BlobEnvelopeTest, MalformedPayloadsAreCorruptionNotUb) {
  {
    // QDigest payload with a duplicate node id.
    ByteWriter w;
    w.PutU32(8);   // universe_bits
    w.PutU32(16);  // compression
    w.PutVarint(4);
    w.PutVarint(2);
    w.PutVarint(17);
    w.PutVarint(2);
    w.PutVarint(17);
    w.PutVarint(2);
    const auto blob =
        WrapPayload(state::TypeId::kQDigest, QDigest::kStateVersion,
                    w.TakeBytes());
    EXPECT_EQ(state::FromBlob<QDigest>(blob).status().code(),
              StatusCode::kCorruption);
  }
  {
    // Exponential histogram with a non-power-of-two bucket size.
    ByteWriter w;
    w.PutVarint(128);  // window
    w.PutU32(4);       // k
    w.PutVarint(50);   // position
    w.PutVarint(1);    // bucket count
    w.PutVarint(49);   // newest_position
    w.PutVarint(3);    // size: not a power of two
    w.PutVarint(2);    // newest - oldest position
    const auto blob = WrapPayload(state::TypeId::kExponentialHistogram,
                                  ExponentialHistogram::kStateVersion,
                                  w.TakeBytes());
    EXPECT_EQ(state::FromBlob<ExponentialHistogram>(blob).status().code(),
              StatusCode::kCorruption);
  }
  {
    // Exponential histogram whose oldest position would precede position 1.
    ByteWriter w;
    w.PutVarint(128);  // window
    w.PutU32(4);       // k
    w.PutVarint(50);   // position
    w.PutVarint(1);    // bucket count
    w.PutVarint(49);   // newest_position
    w.PutVarint(4);    // size
    w.PutVarint(49);   // newest - oldest position: oldest would be 0
    const auto blob = WrapPayload(state::TypeId::kExponentialHistogram,
                                  ExponentialHistogram::kStateVersion,
                                  w.TakeBytes());
    EXPECT_EQ(state::FromBlob<ExponentialHistogram>(blob).status().code(),
              StatusCode::kCorruption);
  }
  {
    // Micro-cluster with an unsorted id list.
    MicroCluster c;
    c.Absorb({1.0, 2.0}, 0.0);
    ByteWriter w;
    c.SerializeTo(w);
    // Strip the trailing zero id-count varint and splice in two ids out of
    // order.
    std::vector<uint8_t> payload = w.TakeBytes();
    payload.pop_back();
    ByteWriter spliced;
    spliced.PutBytes(payload.data(), payload.size());
    spliced.PutVarint(2);
    spliced.PutU32(9);
    spliced.PutU32(4);  // out of order
    const auto blob =
        WrapPayload(state::TypeId::kMicroCluster, MicroCluster::kStateVersion,
                    spliced.TakeBytes());
    EXPECT_EQ(state::FromBlob<MicroCluster>(blob).status().code(),
              StatusCode::kCorruption);
  }
  {
    // AMS header claiming a giant counter array must hit the geometry
    // guard, not attempt the allocation.
    ByteWriter w;
    w.PutU32(0xffffffffu);  // groups
    w.PutU32(0xffffffffu);  // group_size
    const auto blob = WrapPayload(state::TypeId::kAmsSketch,
                                  AmsSketch::kStateVersion, w.TakeBytes());
    EXPECT_EQ(state::FromBlob<AmsSketch>(blob).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(BlobEnvelopeTest, RandomGarbageNeverCrashesFromBlob) {
  Rng rng(TestSeed() ^ 0xfa22);
  for (int trial = 0; trial < 300; trial++) {
    std::vector<uint8_t> garbage(rng.NextBounded(256));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextBounded(256));
    // Random bytes essentially never spell the magic, so these must fail —
    // and must do so through Status, not UB (ASan/UBSan backs this up).
    EXPECT_FALSE(state::FromBlob<HyperLogLog>(garbage).ok());
    EXPECT_FALSE(state::FromBlob<SpaceSaving<std::string>>(garbage).ok());
    EXPECT_FALSE(state::FromBlob<QDigest>(garbage).ok());
    EXPECT_FALSE(state::FromBlob<EhSum>(garbage).ok());
  }

  // Single-byte corruptions of a valid blob: any outcome but a crash or a
  // silent trailing-byte acceptance is fine.
  SpaceSaving<std::string> sketch(16);
  for (uint64_t k : ZipfKeys(2000, 100, 0xb17)) {
    sketch.Add(std::to_string(k));
  }
  const std::vector<uint8_t> blob = state::ToBlob(sketch);
  for (int trial = 0; trial < 200; trial++) {
    std::vector<uint8_t> mutated = blob;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    (void)state::FromBlob<SpaceSaving<std::string>>(mutated);
  }
}

// ------------------------------------------------- Table-driven estimate
//
// Property: the dense HLL estimates read 2^-r from a table instead of
// calling ldexp per register, and stay bit-identical to summing ldexp
// values in register order — over random registers that include the
// maximum rank a hash can produce and, for HyperLogLog, every byte value a
// decoded blob can hold.

// The harmonic sum and estimate as computed with ldexp per register.
double LdexpInverseSum(const std::vector<uint8_t>& ranks) {
  double inverse_sum = 0.0;
  for (uint8_t r : ranks) inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
  return inverse_sum;
}

double LdexpEstimate(const std::vector<uint8_t>& ranks) {
  const auto zeros = static_cast<uint32_t>(
      std::count(ranks.begin(), ranks.end(), uint8_t{0}));
  return hll::EstimateFromRegisterSum(static_cast<uint32_t>(ranks.size()),
                                      LdexpInverseSum(ranks), zeros);
}

// 2^precision ranks drawn from [0, max_rank] with roughly `zero_share` of
// them empty; max_rank itself lands on a random register.
std::vector<uint8_t> RandomRanks(Rng& rng, int precision, int max_rank,
                                 double zero_share) {
  std::vector<uint8_t> ranks(size_t{1} << precision);
  for (uint8_t& r : ranks) {
    r = rng.NextDouble() < zero_share
            ? 0
            : static_cast<uint8_t>(1 + rng.NextBounded(max_rank));
  }
  ranks[rng.NextBounded(ranks.size())] = static_cast<uint8_t>(max_rank);
  return ranks;
}

HyperLogLog HllWithRanks(int precision, const std::vector<uint8_t>& ranks) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(precision));
  w.PutBytes(ranks.data(), ranks.size());
  const std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  Result<HyperLogLog> hll = HyperLogLog::Deserialize(r);
  EXPECT_TRUE(hll.ok()) << hll.status().ToString();
  return std::move(hll).value();
}

// One LFPM entry per non-empty register, all at timestamp 5, so
// Estimate(5, 1) sees exactly `ranks`.
SlidingHyperLogLog SlidingWithRanks(int precision,
                                    const std::vector<uint8_t>& ranks) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(precision));
  w.PutU64(8);
  for (uint8_t rank : ranks) {
    w.PutVarint(rank == 0 ? 0 : 1);
    if (rank == 0) continue;
    w.PutVarint(5);
    w.PutU8(rank);
  }
  const std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  Result<SlidingHyperLogLog> sketch = SlidingHyperLogLog::Deserialize(r);
  EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
  return std::move(sketch).value();
}

/// `count` random items into a fresh sketch; `sparse` keeps it in the
/// exact hash set as long as it fits.
HyperLogLog RandomHll(Rng& rng, int precision, bool sparse, size_t count) {
  HyperLogLog hll(precision, sparse);
  for (size_t i = 0; i < count; i++) hll.Add(rng.Next());
  return hll;
}

TEST(HllMergePropertyTest, MergeEqualsPerRegisterMaxByteForByte) {
  Rng rng(TestSeed() ^ 0x3e76);
  for (int trial = 0; trial < 60; trial++) {
    const int precision = 4 + static_cast<int>(rng.NextBounded(15));  // 4..18
    const bool a_sparse = trial % 2 == 0;
    const bool b_sparse = trial % 4 < 2;
    const size_t registers = size_t{1} << precision;
    HyperLogLog a = RandomHll(rng, precision, a_sparse,
                              rng.NextBounded(2 * registers + 1));
    HyperLogLog b = RandomHll(rng, precision, b_sparse,
                              rng.NextBounded(2 * registers + 1));
    SCOPED_TRACE("precision " + std::to_string(precision) + ", sparse " +
                 std::to_string(a.IsSparse()) + "/" +
                 std::to_string(b.IsSparse()));
    // Serialize() writes the precision byte, then every dense register.
    const std::vector<uint8_t> a_bytes = a.Serialize();
    const std::vector<uint8_t> b_bytes = b.Serialize();
    std::vector<uint8_t> want = a_bytes;
    for (size_t i = 1; i < want.size(); i++) {
      want[i] = std::max(a_bytes[i], b_bytes[i]);
    }
    HyperLogLog merged = a;
    ASSERT_TRUE(merged.Merge(b).ok());
    EXPECT_EQ(merged.Serialize(), want);

    HyperLogLog self = a;
    ASSERT_TRUE(self.Merge(self).ok());
    EXPECT_EQ(self.IsSparse(), a.IsSparse());
    EXPECT_EQ(self.Serialize(), a_bytes);
  }
}

TEST(HllEstimatePropertyTest, TableSumsMatchLdexpBitForBit) {
  Rng rng(TestSeed() ^ 0x2e57);
  for (int trial = 0; trial < 40; trial++) {
    const int precision = 4 + static_cast<int>(rng.NextBounded(15));  // 4..18
    const int max_rank = 65 - precision;  // rho of an all-zero remainder
    // Mostly-empty registers take the linear-counting branch; full ones
    // take the raw harmonic estimate, which reads every summed bit.
    for (double zero_share : {0.0, 0.05, 0.6}) {
      SCOPED_TRACE("precision " + std::to_string(precision) + ", zeros " +
                   std::to_string(zero_share));
      const std::vector<uint8_t> ranks =
          RandomRanks(rng, precision, max_rank, zero_share);
      hll::RegisterSum sum;
      for (uint8_t r : ranks) sum.Add(r);
      EXPECT_EQ(std::bit_cast<uint64_t>(sum.inverse_sum),
                std::bit_cast<uint64_t>(LdexpInverseSum(ranks)));

      const double want = LdexpEstimate(ranks);
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    HllWithRanks(precision, ranks).Estimate()),
                std::bit_cast<uint64_t>(want));
      if (precision <= 16) {
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      SlidingWithRanks(precision, ranks).Estimate(5, 1)),
                  std::bit_cast<uint64_t>(want));
      }
    }
  }
  // Every byte a decoded HyperLogLog register can hold, in one sketch.
  std::vector<uint8_t> every(size_t{1} << 12);
  for (size_t i = 0; i < every.size(); i++) {
    every[i] = static_cast<uint8_t>(rng.NextBounded(256));
  }
  for (int r = 0; r < 256; r++) {
    every[static_cast<size_t>(r)] = static_cast<uint8_t>(r);
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(HllWithRanks(12, every).Estimate()),
            std::bit_cast<uint64_t>(LdexpEstimate(every)));
  for (int r = 0; r < 256; r++) {
    EXPECT_EQ(hll::kInversePow2[static_cast<size_t>(r)], std::ldexp(1.0, -r))
        << r;
  }
}

}  // namespace
}  // namespace streamlib
