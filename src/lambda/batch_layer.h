#ifndef STREAMLIB_LAMBDA_BATCH_LAYER_H_
#define STREAMLIB_LAMBDA_BATCH_LAYER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "lambda/master_log.h"
#include "platform/checkpoint.h"

namespace streamlib::lambda {

/// A batch view: exact aggregates precomputed over a master-log prefix
/// (Figure 1, steps 2-3 — the batch layer "pre-computes the batch views",
/// the serving layer "indexes them for low-latency queries"). Immutable
/// once built; `through_offset` records the prefix it covers so the speed
/// layer knows where real-time responsibility begins.
///
/// The serving index is a ranking of the keys, built by the first TopK on
/// the view object (never by Recompute or RestoreFrom) and reused by every
/// later one. Mutating `key_totals` after that first TopK is not supported.
struct BatchView {
  uint64_t through_offset = 0;  ///< exclusive end of the covered prefix
  std::unordered_map<std::string, double> key_totals;  ///< exact sums

  /// Cardinality of the key set as a versioned SketchBlob (HyperLogLog,
  /// precision 12). Kept in envelope form so the serving layer merges it
  /// with the speed layer's blob through the state contract, and so the
  /// view persists byte-for-byte through a KvCheckpointStore.
  std::vector<uint8_t> distinct_keys_blob;

  /// Exact total for a key over the covered prefix (0 if absent).
  double TotalOf(const std::string& key) const;

  /// Top-k keys by total descending, ties by key ascending. The first call
  /// on a view ranks every key, O(n log n) once; each call copies k entries.
  /// Safe to call from many threads at once.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;

  /// Persists the view into `store` under `prefix` — the distinct-key
  /// sketch as its SketchBlob, the exact totals + offset as a meta entry.
  void SnapshotTo(platform::KvCheckpointStore* store,
                  const std::string& prefix) const;

  /// Rebuilds a view previously written by SnapshotTo. Corrupt or missing
  /// entries surface as the underlying Status.
  static Result<BatchView> RestoreFrom(const platform::KvCheckpointStore& store,
                                       const std::string& prefix);

 private:
  using Entry = std::unordered_map<std::string, double>::value_type;

  /// Every key of `key_totals` in TopK order, as pointers into the map's
  /// nodes, built once under a lock and then read lock-free. A ranking
  /// points into the map it was built from, so it never travels: a copy,
  /// the target of a move and the source of a move all start unranked.
  class Ranking {
   public:
    Ranking() = default;
    Ranking(const Ranking&) {}
    Ranking(Ranking&& other) noexcept { other.Reset(); }
    Ranking& operator=(const Ranking&) {
      Reset();
      return *this;
    }
    Ranking& operator=(Ranking&& other) noexcept {
      Reset();
      other.Reset();
      return *this;
    }

    const std::vector<const Entry*>& Get(
        const std::unordered_map<std::string, double>& totals);

   private:
    void Reset() noexcept {
      built_.store(false, std::memory_order_relaxed);
      order_.clear();
    }

    std::mutex build_mu_;
    std::atomic<bool> built_{false};
    std::vector<const Entry*> order_;  // Written once, before built_.
  };

  mutable Ranking ranking_;
};

/// The batch layer: builds each BatchView by folding the records that are
/// new since the previous view onto that view (DESIGN.md §14). How often it
/// runs is what the Lambda Architecture trades against freshness — the F1
/// bench measures staleness by controlling it.
class BatchLayer {
 public:
  BatchLayer() = default;

  /// The next view of `log`: a copy of `base` with log[base.through_offset,
  /// log.size()) folded in, in offset order. O(new records + keys).
  /// `base` must cover a prefix of this same log — an empty BatchView or
  /// an earlier Extend of it, never a view restored from another process's
  /// image. The result is then bit-identical to RecomputePrefix(log,
  /// log.size()): per-key sums run in the same order, and HLL registers are
  /// a max.
  BatchView Extend(const BatchView& base, const MasterLog& log) const;

  /// From-scratch recompute over log[0, log.size()). O(prefix length); the
  /// reference Extend is tested against, not a serving path.
  BatchView Recompute(const MasterLog& log) const;

  /// From-scratch recompute over an explicit prefix log[0, through_offset).
  BatchView RecomputePrefix(const MasterLog& log,
                            uint64_t through_offset) const;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_BATCH_LAYER_H_
