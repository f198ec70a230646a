// Batched-kernel equivalence suite (ctest label: simd).
//
// The contract under test: for every batched kernel, UpdateBatch over N
// keys leaves the sketch in *bit-identical* state to N scalar Update calls
// in the same order — whatever backend (AVX2 or scalar) simd.h selected.
// This same source is compiled twice: once against the main build's
// backend (simd_kernels_test) and once with STREAMLIB_FORCE_SCALAR against
// the streamlib_kernels_scalar twin (simd_fallback_test), so the portable
// path is held to the identical contract on every build.
//
// Workloads: uniform, Zipf (skewed), and adversarial duplicates (the same
// key packed densely inside one batch — the case that breaks kernels which
// reorder read-modify-write lanes carelessly). Batch sizes cover the lane
// edge cases: 0, 1, lanes-1, lanes, lanes+1, and a multi-chunk size.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"
#include "core/filtering/blocked_bloom_filter.h"
#include "core/frequency/count_min_sketch.h"
#include "core/frequency/count_sketch.h"
#include "core/frequency/dyadic_count_min.h"
#include "workload/zipf.h"

namespace streamlib {
namespace {

using state::ToBlob;

// The batch sizes every kernel is exercised with: empty, single, around
// the SIMD lane count, and large enough to span several internal chunks.
std::vector<size_t> BatchSizes() {
  const size_t lanes = simd::kLanes;
  return {0, 1, lanes - 1, lanes, lanes + 1, 333, 1024};
}

std::vector<uint64_t> UniformKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

std::vector<uint64_t> ZipfKeys(size_t n, uint64_t seed) {
  workload::ZipfGenerator zipf(100000, 1.1, seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = zipf.Next();
  return keys;
}

// Adversarial duplicates: long runs of one key plus an alternating pair —
// maximal in-batch read-after-write hazards.
std::vector<uint64_t> DuplicateKeys(size_t n, uint64_t seed) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; i++) {
    if (i < n / 2) {
      keys[i] = seed;
    } else {
      keys[i] = (i % 2 == 0) ? seed : seed + 1;
    }
  }
  return keys;
}

using KeyGen = std::vector<uint64_t> (*)(size_t, uint64_t);

const KeyGen kKeyGens[] = {&UniformKeys, &ZipfKeys, &DuplicateKeys};

TEST(SimdWrapper, BackendIsDeclared) {
#if defined(STREAMLIB_FORCE_SCALAR)
  EXPECT_STREQ(simd::BackendName(), "scalar");
#else
  EXPECT_TRUE(std::string(simd::BackendName()) == "avx2" ||
              std::string(simd::BackendName()) == "scalar");
#endif
}

TEST(HashBatch, MatchesScalarHashInt64) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{7}, uint64_t{0xdeadbeef}}) {
    for (size_t n : BatchSizes()) {
      const std::vector<uint64_t> keys = UniformKeys(n, 42 + n);
      std::vector<uint64_t> batch(n);
      HashBatch64(keys.data(), n, seed, batch.data());
      for (size_t i = 0; i < n; i++) {
        EXPECT_EQ(batch[i], HashInt64(keys[i], seed)) << "i=" << i;
      }
    }
  }
}

TEST(HashBatch, KmStepMatchesScalar) {
  const uint64_t salt = 0x7a0c5e3dbb2f8d1bULL;
  for (size_t n : BatchSizes()) {
    const std::vector<uint64_t> hashes = UniformKeys(n, 99 + n);
    std::vector<uint64_t> batch(n);
    KmStepHashBatch(hashes.data(), n, salt, batch.data());
    for (size_t i = 0; i < n; i++) {
      EXPECT_EQ(batch[i], KmStepHash(hashes[i], salt));
      EXPECT_EQ(batch[i] & 1, 1u) << "h2 must be odd";
    }
  }
}

TEST(CountMinBatch, BitIdenticalAcrossWorkloadsAndSizes) {
  static_assert(state::BatchUpdatable<CountMinSketch>);
  for (bool conservative : {false, true}) {
    for (KeyGen gen : kKeyGens) {
      for (size_t n : BatchSizes()) {
        const std::vector<uint64_t> keys = gen(n, 1234);
        CountMinSketch scalar(777, 4, conservative);  // rounds to 1024
        CountMinSketch batched(777, 4, conservative);
        EXPECT_EQ(scalar.width(), 1024u);
        for (uint64_t k : keys) scalar.Add(k);
        batched.AddBatch(std::span<const uint64_t>(keys));
        EXPECT_EQ(ToBlob(scalar), ToBlob(batched))
            << "conservative=" << conservative << " n=" << n;
        if (n > 0) {
          EXPECT_EQ(scalar.Estimate(keys[0]), batched.Estimate(keys[0]));
        }
      }
    }
  }
}

TEST(CountMinBatch, WeightedAndPrehashed) {
  const std::vector<uint64_t> keys = ZipfKeys(500, 5);
  std::vector<uint64_t> hashes(keys.size());
  HashBatch64(keys.data(), keys.size(), CountMinSketch::kHashSeed,
              hashes.data());
  CountMinSketch scalar(512, 5);
  CountMinSketch batched(512, 5);
  for (uint64_t k : keys) scalar.Add(k, 3);
  batched.AddHashBatch(hashes, 3);
  EXPECT_EQ(ToBlob(scalar), ToBlob(batched));
  EXPECT_EQ(scalar.total_count(), batched.total_count());
}

TEST(CountMinBatch, StringKeysRouteThroughScalarHashing) {
  std::vector<std::string> keys;
  for (int i = 0; i < 100; i++) keys.push_back("key-" + std::to_string(i % 7));
  CountMinSketch scalar(256, 4);
  CountMinSketch batched(256, 4);
  for (const auto& k : keys) scalar.Add(k);
  batched.AddBatch(std::span<const std::string>(keys));
  EXPECT_EQ(ToBlob(scalar), ToBlob(batched));
}

TEST(DyadicCountMinBatch, BitIdenticalIncludingQuantiles) {
  for (KeyGen gen : kKeyGens) {
    for (size_t n : BatchSizes()) {
      const std::vector<uint64_t> raw = gen(n, 31337);
      std::vector<uint32_t> values(raw.size());
      for (size_t i = 0; i < raw.size(); i++) {
        values[i] = static_cast<uint32_t>(raw[i] & 0xfff);
      }
      DyadicCountMin scalar(12, 256, 4);
      DyadicCountMin batched(12, 256, 4);
      for (uint32_t v : values) scalar.Add(v);
      batched.AddBatch(std::span<const uint32_t>(values));
      EXPECT_EQ(ToBlob(scalar), ToBlob(batched)) << "n=" << n;
      if (n > 0) {
        EXPECT_EQ(scalar.Quantile(0.5), batched.Quantile(0.5));
      }
    }
  }
}

TEST(HyperLogLogBatch, BitIdenticalIncludingMidBatchDensify) {
  static_assert(state::BatchUpdatable<HyperLogLog>);
  for (KeyGen gen : kKeyGens) {
    for (size_t n : BatchSizes()) {
      // precision 8 with sparse start: SparseLimit is 24 hashes, so the
      // larger batches cross the sparse->dense upgrade mid-batch.
      HyperLogLog scalar(8, /*sparse=*/true);
      HyperLogLog batched(8, /*sparse=*/true);
      const std::vector<uint64_t> keys = gen(n, 2024);
      for (uint64_t k : keys) scalar.Add(k);
      batched.AddBatch(std::span<const uint64_t>(keys));
      EXPECT_EQ(scalar.IsSparse(), batched.IsSparse()) << "n=" << n;
      EXPECT_EQ(ToBlob(scalar), ToBlob(batched)) << "n=" << n;
      EXPECT_DOUBLE_EQ(scalar.Estimate(), batched.Estimate()) << "n=" << n;
    }
  }
}

TEST(HyperLogLogBatch, DenseStartBitIdentical) {
  for (size_t n : BatchSizes()) {
    HyperLogLog scalar(12, /*sparse=*/false);
    HyperLogLog batched(12, /*sparse=*/false);
    const std::vector<uint64_t> keys = UniformKeys(n, 9000 + n);
    for (uint64_t k : keys) scalar.Add(k);
    batched.AddBatch(std::span<const uint64_t>(keys));
    EXPECT_EQ(ToBlob(scalar), ToBlob(batched)) << "n=" << n;
  }
}

TEST(BlockedBloomFilterBatch, IdenticalProbes) {
  static_assert(state::BatchUpdatable<BlockedBloomFilter>);
  const std::vector<uint64_t> probes = UniformKeys(2000, 2);
  std::vector<uint64_t> probe_hashes(probes.size());
  HashBatch64(probes.data(), probes.size(), BlockedBloomFilter::kHashSeed,
              probe_hashes.data());
  for (size_t n : BatchSizes()) {
    BlockedBloomFilter scalar(1 << 16, 6);
    BlockedBloomFilter batched(1 << 16, 6);
    const std::vector<uint64_t> keys = ZipfKeys(n, 808);
    for (uint64_t k : keys) scalar.Add(k);
    batched.AddBatch(std::span<const uint64_t>(keys));
    std::vector<uint8_t> results(probes.size());
    batched.ContainsHashBatch(probe_hashes, results.data());
    for (size_t i = 0; i < probes.size(); i++) {
      EXPECT_EQ(scalar.Contains(probes[i]), results[i] != 0) << "i=" << i;
    }
    for (uint64_t k : keys) EXPECT_TRUE(batched.Contains(k));
  }
}

TEST(Pow2Widths, ConstructorRoundsUpAndSerdeRejectsNonPow2) {
  CountMinSketch cms(1000, 4);
  EXPECT_EQ(cms.width(), 1024u);
  CountSketch cs(100, 3);
  EXPECT_EQ(cs.width(), 128u);

  // A v2 blob whose width field is not a power of two must be rejected
  // (it cannot have been produced by this version).
  std::vector<uint8_t> blob = ToBlob(cms);
  // Envelope: magic(4) + type(2) + version(2); payload starts with width u32.
  blob[8] = 0x03;  // width 1024 -> corrupt low byte: 1027.
  auto decoded = state::FromBlob<CountMinSketch>(blob);
  EXPECT_FALSE(decoded.ok());
}

TEST(Pow2Widths, VersionBumpRejectsV1Blobs) {
  CountMinSketch cms(64, 2);
  std::vector<uint8_t> blob = ToBlob(cms);
  blob[6] = 1;  // Envelope version u16 little-endian at offset 6: fake v1.
  blob[7] = 0;
  auto decoded = state::FromBlob<CountMinSketch>(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace streamlib
