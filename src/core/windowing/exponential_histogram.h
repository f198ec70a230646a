#ifndef STREAMLIB_CORE_WINDOWING_EXPONENTIAL_HISTOGRAM_H_
#define STREAMLIB_CORE_WINDOWING_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <deque>

#include "common/check.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"

namespace streamlib {

/// DGIM exponential histogram (Datar, Gionis, Indyk & Motwani — the "Basic
/// Counting" row of Table 1, cited as [72]): estimates the number of 1-bits
/// among the last W stream bits with relative error <= 1/k using
/// O(k log^2 W) bits of state. Buckets hold power-of-two counts of 1s; at
/// most k+1 buckets of each size are kept, merging the two oldest on
/// overflow; the oldest bucket contributes half its size to the estimate.
///
/// Application (Table 1): popularity analysis — "how many of the last N
/// impressions clicked".
class ExponentialHistogram {
 public:
  static constexpr state::TypeId kTypeId =
      state::TypeId::kExponentialHistogram;
  static constexpr uint16_t kStateVersion = 2;

  /// \param window  window size W in stream positions.
  /// \param k       buckets per size class; relative error <= 1/k... with
  ///                the guarantee |m_hat - m| <= m/k (set k = ceil(1/eps)).
  ExponentialHistogram(uint64_t window, uint32_t k);

  /// Processes the next bit of the stream.
  void Add(bool bit);

  /// Estimated count of 1s among the last `window` bits: total bucket
  /// mass minus half of every bucket that straddles the window start.
  uint64_t Estimate() const;

  /// Upper/lower bounds bracketing the true count. A bucket whose oldest 1
  /// has left the window still holds at least its newest 1 inside it, so
  /// the lower bound counts each straddling bucket as 1.
  uint64_t UpperBound() const { return total_; }
  uint64_t LowerBound() const;

  uint64_t window() const { return window_; }
  uint64_t position() const { return position_; }
  uint32_t k() const { return k_; }

  /// Merges a histogram over the *same global position timeline* (the
  /// sharded pattern where each shard sees a subset of a shared stream and
  /// positions are event indices, as in SlidingHyperLogLog). Buckets are
  /// interleaved by position, expired against the later of the two
  /// positions, and the k+1-per-size-class invariant is re-established.
  /// Interleaved buckets span overlapping position ranges, so after a
  /// merge any bucket — not only the oldest — may straddle the window
  /// start; each bucket's oldest position keeps the bounds honest.
  Status Merge(const ExponentialHistogram& other);

  /// state::MergeableSketch payload: parameters, position, then the buckets
  /// oldest-first as (newest position, size, newest - oldest position).
  void SerializeTo(ByteWriter& w) const;
  static Result<ExponentialHistogram> Deserialize(ByteReader& r);

  /// Number of buckets currently held (space diagnostic, O(k log W)).
  size_t NumBuckets() const { return buckets_.size(); }
  size_t MemoryBytes() const { return buckets_.size() * sizeof(Bucket); }

 private:
  struct Bucket {
    uint64_t newest_position;  // Arrival index of the newest 1 in the bucket.
    uint64_t size;             // Number of 1s (a power of two).
    uint64_t oldest_position;  // Arrival index of the oldest 1 in the bucket.
  };

  /// Two buckets of one size class combined into one of twice the size.
  static Bucket Combine(const Bucket& older, const Bucket& newer);

  /// True when the bucket's oldest 1 has left the window (its newest is
  /// still inside, or the bucket would have expired).
  bool Straddles(const Bucket& b) const {
    return b.oldest_position + window_ <= position_;
  }

  void ExpireOld();
  void MergeOverflow();
  void Canonicalize();

  uint64_t window_;
  uint32_t k_;
  uint64_t position_ = 0;  // Bits consumed so far.
  uint64_t total_ = 0;     // Sum of bucket sizes.
  std::deque<Bucket> buckets_;  // Front = oldest (largest sizes).
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_WINDOWING_EXPONENTIAL_HISTOGRAM_H_
