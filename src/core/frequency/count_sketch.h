#ifndef STREAMLIB_CORE_FREQUENCY_COUNT_SKETCH_H_
#define STREAMLIB_CORE_FREQUENCY_COUNT_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"

namespace streamlib {

/// Count sketch (Charikar, Chen & Farach-Colton, cited as [57]): like
/// Count-Min but each update carries a +-1 sign hash and point queries take
/// the *median* across rows. Estimates are unbiased with error proportional
/// to sqrt(F2)/sqrt(width) — much tighter than Count-Min's eps*F1 on
/// skewed streams where a few heavy items dominate F2. Also the basis of F2
/// estimation (row L2 norms).
///
/// Width is rounded up to a power of two; row r's probe derives from one
/// base digest via Kirsch–Mitzenmacher double hashing g = h1 + r*h2, with
/// col = (g >> 1) & mask and sign = g & 1 (state version 2).
class CountSketch {
 public:
  static constexpr state::TypeId kTypeId = state::TypeId::kCountSketch;
  /// v2: power-of-two width, Kirsch–Mitzenmacher row indexing — v1 blobs
  /// map cells differently and are rejected by the envelope version check.
  static constexpr uint16_t kStateVersion = 2;

  /// Digest seed — public so callers can pre-hash keys for AddHash.
  static constexpr uint64_t kHashSeed = 0x9ddfea08eb382d69ULL;

  /// \param width  counters per row, rounded up to a power of two.
  /// \param depth  rows; the median over rows needs depth >= 3 (odd).
  CountSketch(uint32_t width, uint32_t depth);

  template <typename T>
  void Add(const T& key, int64_t count = 1) {
    AddHash(HashValue(key, kHashSeed), count);
  }

  /// Unbiased point estimate (median of signed row counters). May be
  /// negative for rare keys; callers typically clamp at 0.
  template <typename T>
  int64_t Estimate(const T& key) const {
    return EstimateHash(HashValue(key, kHashSeed));
  }

  void AddHash(uint64_t hash, int64_t count);
  int64_t EstimateHash(uint64_t hash) const;

  /// Median across rows of the row's sum of squared counters: an estimate of
  /// the second frequency moment F2 (see AmsSketch for the lineage).
  double EstimateF2() const;

  /// In-place merge with an identically shaped sketch.
  Status Merge(const CountSketch& other);

  /// state::MergeableSketch payload: geometry, then zigzag-varint cells.
  void SerializeTo(ByteWriter& w) const;
  static Result<CountSketch> Deserialize(ByteReader& r);

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  size_t MemoryBytes() const { return table_.size() * sizeof(int64_t); }

 private:
  static constexpr uint64_t kKmSalt = 0x452821e638d01377ULL;

  int64_t& Cell(uint32_t row, uint64_t col) {
    return table_[static_cast<size_t>(row) * width_ + col];
  }
  const int64_t& Cell(uint32_t row, uint64_t col) const {
    return table_[static_cast<size_t>(row) * width_ + col];
  }

  uint32_t width_;
  uint64_t mask_;  ///< width_ - 1 (width_ is a power of two)
  uint32_t depth_;
  std::vector<int64_t> table_;
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_FREQUENCY_COUNT_SKETCH_H_
