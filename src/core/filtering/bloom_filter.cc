#include "core/filtering/bloom_filter.h"

#include <cmath>

#include "common/bitutil.h"
#include "common/check.h"

namespace streamlib {

BloomFilter::BloomFilter(uint64_t num_bits, uint32_t num_hashes)
    : num_bits_((num_bits + 63) / 64 * 64), num_hashes_(num_hashes) {
  STREAMLIB_CHECK_MSG(num_bits >= 64, "filter needs at least 64 bits");
  STREAMLIB_CHECK_MSG(num_hashes >= 1, "need at least one hash");
  words_.assign(num_bits_ / 64, 0);
}

BloomFilter BloomFilter::WithExpectedItems(uint64_t expected_items,
                                           double fpp) {
  STREAMLIB_CHECK_MSG(expected_items >= 1, "expected_items must be >= 1");
  STREAMLIB_CHECK_MSG(fpp > 0.0 && fpp < 1.0, "fpp must be in (0, 1)");
  const double ln2 = 0.6931471805599453;
  const double m = -static_cast<double>(expected_items) * std::log(fpp) /
                   (ln2 * ln2);
  const double k = m / static_cast<double>(expected_items) * ln2;
  const uint64_t bits = std::max<uint64_t>(64, static_cast<uint64_t>(m) + 1);
  const uint32_t hashes =
      std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(k)));
  return BloomFilter(bits, hashes);
}

void BloomFilter::BaseHashes(uint64_t hash, uint64_t* h1, uint64_t* h2) {
  *h1 = hash;
  // Re-mix for the second base hash; force odd so probe strides cover the
  // (power-of-two-free) modulus space well.
  *h2 = Mix64(hash ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
}

void BloomFilter::AddHash(uint64_t hash) {
  uint64_t h1;
  uint64_t h2;
  BaseHashes(hash, &h1, &h2);
  for (uint32_t i = 0; i < num_hashes_; i++) {
    const uint64_t bit = DoubleHash(h1, h2, i) % num_bits_;
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

bool BloomFilter::ContainsHash(uint64_t hash) const {
  uint64_t h1;
  uint64_t h2;
  BaseHashes(hash, &h1, &h2);
  for (uint32_t i = 0; i < num_hashes_; i++) {
    const uint64_t bit = DoubleHash(h1, h2, i) % num_bits_;
    if ((words_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

Status BloomFilter::Union(const BloomFilter& other) {
  if (other.num_bits_ != num_bits_ || other.num_hashes_ != num_hashes_) {
    return Status::InvalidArgument(
        "Bloom union requires identical geometry (bits, hashes)");
  }
  for (size_t i = 0; i < words_.size(); i++) words_[i] |= other.words_[i];
  return Status::OK();
}

double BloomFilter::EstimatedCardinality() const {
  uint64_t set_bits = 0;
  for (uint64_t w : words_) set_bits += PopCount64(w);
  if (set_bits == 0) return 0.0;
  const double m = static_cast<double>(num_bits_);
  const double x = static_cast<double>(set_bits);
  if (set_bits >= num_bits_) return m;  // Saturated; estimate diverges.
  return -(m / num_hashes_) * std::log1p(-x / m);
}

double BloomFilter::TheoreticalFpp(uint64_t items) const {
  const double exponent = -static_cast<double>(num_hashes_) *
                          static_cast<double>(items) /
                          static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(exponent), num_hashes_);
}

double BloomFilter::FillRatio() const {
  uint64_t set_bits = 0;
  for (uint64_t w : words_) set_bits += PopCount64(w);
  return static_cast<double>(set_bits) / static_cast<double>(num_bits_);
}

}  // namespace streamlib
