#ifndef STREAMLIB_CORE_FREQUENCY_COUNT_MIN_SKETCH_H_
#define STREAMLIB_CORE_FREQUENCY_COUNT_MIN_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"

namespace streamlib {

/// Count-Min sketch (Cormode & Muthukrishnan, cited as [66]): a d x w
/// counter array; each key increments one counter per row, point queries
/// take the row-wise *minimum*. With w = ceil(e/eps) and d = ceil(ln(1/dl)),
/// estimates overcount by at most eps * n with probability 1 - dl.
/// Linear (merge-able) and supports weighted updates — the workhorse sketch
/// behind distributed heavy-hitter pipelines (Summingbird-style, per the
/// paper's Lambda discussion).
///
/// Width is rounded up to a power of two so every probe is a bitmask
/// instead of a modulo, and row indices derive from one base digest via
/// Kirsch–Mitzenmacher double hashing (col_r = h1 + r*h2) instead of
/// re-mixing per row — the two index-path changes behind state version 2.
///
/// The optional *conservative update* (Estan & Varghese [81]) increments
/// only the counters that equal the current minimum, provably never
/// increasing error; its effect is measured by the A-cms-conservative
/// ablation bench.
class CountMinSketch {
 public:
  static constexpr state::TypeId kTypeId = state::TypeId::kCountMinSketch;
  /// v2: power-of-two width, Kirsch–Mitzenmacher row indexing. v1 blobs
  /// (per-row remix, arbitrary width) map cells differently and are
  /// rejected by the envelope version check rather than silently misread.
  static constexpr uint16_t kStateVersion = 2;

  /// Base-digest seed — public so batched feeders (bolts, benches) can
  /// pre-hash keys once and call AddHashBatch directly.
  static constexpr uint64_t kHashSeed = 0x0b4c61d34d2f5ee9ULL;

  /// \param width  counters per row, rounded up to a power of two
  ///               (error ~ e/width of total count).
  /// \param depth  rows (failure probability ~ exp(-depth)).
  /// \param conservative  enable conservative update.
  CountMinSketch(uint32_t width, uint32_t depth, bool conservative = false);

  /// Sizes the sketch for overcount <= eps*n with probability >= 1 - delta.
  static CountMinSketch WithErrorBound(double eps, double delta,
                                       bool conservative = false);

  template <typename T>
  void Add(const T& key, uint64_t count = 1) {
    AddHash(HashValue(key, kHashSeed), count);
  }

  template <typename T>
  uint64_t Estimate(const T& key) const {
    return EstimateHash(HashValue(key, kHashSeed));
  }

  void AddHash(uint64_t hash, uint64_t count);
  uint64_t EstimateHash(uint64_t hash) const;

  /// Batched update over pre-hashed digests, each weighted `count`.
  /// Final sketch state is bit-identical to calling AddHash in order; a
  /// conservative sketch takes exactly that scalar path.
  void AddHashBatch(std::span<const uint64_t> hashes, uint64_t count = 1);

  /// Batched update over raw keys: hashes in vectorized chunks (integral
  /// keys) and feeds AddHashBatch. Bit-identical to N scalar Add calls.
  template <typename T>
  void AddBatch(std::span<const T> keys, uint64_t count = 1) {
    uint64_t digests[kBatchChunk];
    for (size_t done = 0; done < keys.size();) {
      const size_t n = HashKeyChunk(keys.subspan(done), kHashSeed, digests);
      AddHashBatch(std::span<const uint64_t>(digests, n), count);
      done += n;
    }
  }

  /// In-place merge with an identically shaped, same-mode sketch.
  /// (Conservative-update sketches are not linear; merging them degrades
  /// their tightened bound back to the standard CM guarantee.)
  Status Merge(const CountMinSketch& other);

  /// Estimated inner product of the two frequency vectors (self-join size
  /// when `other` is this sketch) — min over rows of the row dot-product.
  Result<uint64_t> InnerProduct(const CountMinSketch& other) const;

  /// state::MergeableSketch payload: geometry, mode, total, varint cells.
  void SerializeTo(ByteWriter& w) const;
  static Result<CountMinSketch> Deserialize(ByteReader& r);

  /// Legacy whole-buffer forms (wire-compatible with SerializeTo) — used by
  /// the platform checkpoint store so stateful bolts can persist state.
  std::vector<uint8_t> Serialize() const;
  static Result<CountMinSketch> Deserialize(const std::vector<uint8_t>& bytes);

  uint64_t total_count() const { return total_count_; }
  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  bool conservative() const { return conservative_; }
  size_t MemoryBytes() const { return table_.size() * sizeof(uint64_t); }

  /// Additive error bound eps*n implied by the geometry: e/width * n.
  double ErrorBound() const;

 private:
  /// Stack chunk size for the batched paths (hash/index scratch arrays).
  static constexpr size_t kBatchChunk = 64;
  /// Salt for the KM step hash h2 = Mix64(h1 ^ salt) | 1.
  static constexpr uint64_t kKmSalt = 0x7a0c5e3dbb2f8d1bULL;

  /// Hashes up to kBatchChunk keys into `out`; returns how many it took.
  template <typename T>
  static size_t HashKeyChunk(std::span<const T> keys, uint64_t seed,
                             uint64_t* out) {
    const size_t n = keys.size() < kBatchChunk ? keys.size() : kBatchChunk;
    if constexpr (std::is_integral_v<T> && sizeof(T) == sizeof(uint64_t)) {
      HashBatch64(reinterpret_cast<const uint64_t*>(keys.data()), n, seed,
                  out);
    } else {
      for (size_t i = 0; i < n; i++) out[i] = HashValue(keys[i], seed);
    }
    return n;
  }

  uint64_t& Cell(uint32_t row, uint64_t col) {
    return table_[static_cast<size_t>(row) * width_ + col];
  }
  const uint64_t& Cell(uint32_t row, uint64_t col) const {
    return table_[static_cast<size_t>(row) * width_ + col];
  }
  uint64_t ColumnOf(uint64_t h1, uint64_t h2, uint32_t row) const {
    return DoubleHash(h1, h2, row) & mask_;
  }

  uint32_t width_;
  uint64_t mask_;  ///< width_ - 1 (width_ is a power of two)
  uint32_t depth_;
  bool conservative_;
  uint64_t total_count_ = 0;
  std::vector<uint64_t> table_;
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_FREQUENCY_COUNT_MIN_SKETCH_H_
