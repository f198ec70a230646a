#ifndef STREAMLIB_CORE_FILTERING_BLOOM_FILTER_H_
#define STREAMLIB_CORE_FILTERING_BLOOM_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace streamlib {

/// Standard Bloom filter (Bloom 1970, cited as [49]): approximate set
/// membership with no false negatives and a tunable false-positive
/// probability, using ~1.44 log2(1/fpp) bits per key.
///
/// Hashing follows Kirsch & Mitzenmacher [116]: the k probe positions are
/// derived from two 64-bit halves of one 128-bit Murmur3 digest, which
/// preserves the asymptotic false-positive rate with a single hash pass.
///
/// Application (Table 1): set membership — e.g. "has this URL/user/tweet id
/// been seen before" in a high-velocity event stream.
class BloomFilter {
 public:
  /// \param num_bits     filter size in bits (rounded up to a multiple of 64)
  /// \param num_hashes   number of probes k (>= 1)
  BloomFilter(uint64_t num_bits, uint32_t num_hashes);

  /// Sizes the filter for `expected_items` keys at false-positive probability
  /// `fpp` using the textbook optima m = -n ln p / (ln 2)^2, k = m/n ln 2.
  static BloomFilter WithExpectedItems(uint64_t expected_items, double fpp);

  /// Inserts a key.
  template <typename T>
  void Add(const T& key) {
    AddHash(HashValue(key, kHashSeed));
  }

  /// Membership probe: false => definitely absent; true => probably present.
  template <typename T>
  bool Contains(const T& key) const {
    return ContainsHash(HashValue(key, kHashSeed));
  }

  /// Hash-level interface (used when the caller already has the digest).
  void AddHash(uint64_t hash);
  bool ContainsHash(uint64_t hash) const;

  /// In-place union with a filter of identical geometry.
  Status Union(const BloomFilter& other);

  /// Estimated number of distinct inserted keys from the bit density
  /// (Swamidass & Baldi): n* = -(m/k) ln(1 - X/m).
  double EstimatedCardinality() const;

  /// Theoretical false-positive probability at `items` inserted keys.
  double TheoreticalFpp(uint64_t items) const;

  /// Fraction of bits set.
  double FillRatio() const;

  uint64_t num_bits() const { return num_bits_; }
  uint32_t num_hashes() const { return num_hashes_; }
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Digest seed — public so callers can pre-hash keys for AddHash.
  static constexpr uint64_t kHashSeed = 0x9747b28c9747b28cULL;

 private:
  // Splits `hash` into the two Kirsch–Mitzenmacher base hashes.
  static void BaseHashes(uint64_t hash, uint64_t* h1, uint64_t* h2);

  uint64_t num_bits_;
  uint32_t num_hashes_;
  std::vector<uint64_t> words_;
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_FILTERING_BLOOM_FILTER_H_
