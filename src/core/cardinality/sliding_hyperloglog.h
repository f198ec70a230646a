#ifndef STREAMLIB_CORE_CARDINALITY_SLIDING_HYPERLOGLOG_H_
#define STREAMLIB_CORE_CARDINALITY_SLIDING_HYPERLOGLOG_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"

namespace streamlib {

/// Sliding HyperLogLog (Chabchoub & Hébrail, cited as [54]): answers
/// "how many distinct keys in the last w time units" for *any* w up to a
/// configured maximum. Each register keeps the List of Possible Future
/// Maxima (LFPM): (timestamp, rank) pairs where no later pair has an equal
/// or higher rank; expired and dominated pairs are pruned, so per-register
/// memory stays O(log window) in expectation.
class SlidingHyperLogLog {
 public:
  static constexpr state::TypeId kTypeId = state::TypeId::kSlidingHyperLogLog;
  static constexpr uint16_t kStateVersion = 1;

  /// Digest seed — public so callers can pre-hash keys for AddHash.
  static constexpr uint64_t kHashSeed = 0x5bd1e9955bd1e995ULL;

  /// \param precision   p in [4, 16]; 2^p registers.
  /// \param max_window  maximum look-back horizon in time units.
  SlidingHyperLogLog(int precision, uint64_t max_window);

  /// Records a key arrival at time `timestamp` (monotonically nondecreasing).
  template <typename T>
  void Add(const T& key, uint64_t timestamp) {
    AddHash(HashValue(key, kHashSeed), timestamp);
  }

  void AddHash(uint64_t hash, uint64_t timestamp);

  /// Estimated distinct keys among arrivals in (now - window, now].
  /// `window` must be <= max_window; `now` >= the last Add timestamp.
  double Estimate(uint64_t now, uint64_t window) const;

  /// In-place union over two partial streams; requires equal precision and
  /// max_window. Each register's merged LFPM is the dominance-pruned union
  /// of both sides' entries, so any window estimate over the merged sketch
  /// equals the estimate over the interleaved combined stream.
  Status Merge(const SlidingHyperLogLog& other);

  /// state::MergeableSketch payload: precision, max_window, then each
  /// register's LFPM as (count, (timestamp, rank)...).
  void SerializeTo(ByteWriter& w) const;
  static Result<SlidingHyperLogLog> Deserialize(ByteReader& r);

  int precision() const { return precision_; }
  uint64_t max_window() const { return max_window_; }

  /// Total LFPM entries across registers (memory diagnostic).
  size_t TotalEntries() const;
  size_t MemoryBytes() const;

 private:
  struct Entry {
    uint64_t timestamp;
    uint8_t rank;
  };

  int precision_;
  uint64_t max_window_;
  std::vector<std::deque<Entry>> registers_;
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_CARDINALITY_SLIDING_HYPERLOGLOG_H_
