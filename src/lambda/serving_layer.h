#ifndef STREAMLIB_LAMBDA_SERVING_LAYER_H_
#define STREAMLIB_LAMBDA_SERVING_LAYER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rcu_ptr.h"
#include "lambda/batch_layer.h"
#include "lambda/speed_layer.h"

namespace streamlib::lambda {

/// One consistent (BatchView, SpeedView) pair — the unit of snapshot
/// isolation for the whole read path. Immutable once composed: every query
/// a reader makes against the same ServingSnapshot sees one frozen state of
/// the world, no matter how much ingest or how many batch recomputes race
/// with it. Invariant: batch->through_offset == speed->from_offset (the
/// speed view covers exactly the suffix the batch view does not).
struct ServingSnapshot {
  uint64_t version = 0;  ///< monotone composition counter
  std::shared_ptr<const BatchView> batch;
  std::shared_ptr<const SpeedView> speed;
  /// HLL union of both views, folded at composition time so the per-query
  /// cost is a load instead of a sketch merge.
  double distinct_estimate = 0;

  /// Exclusive end of the log range this snapshot covers.
  uint64_t through_offset() const { return speed->through_offset(); }
  uint64_t batch_through_offset() const { return batch->through_offset; }

  /// Merged total for a key: exact batch prefix + approximate suffix.
  double TotalOf(const std::string& key) const;

  /// Merged top-k: candidate keys from both views, ranked by merged total.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;

  /// Merged distinct-key estimate (precomputed at composition).
  double DistinctKeys() const { return distinct_estimate; }
};

/// The serving layer (Figure 1, steps 3 & 5): holds the latest batch view
/// and answers queries by *merging* it with the speed layer's real-time
/// view — "incoming queries are answered by merging results from batch
/// views and real-time views".
///
/// Read path (DESIGN.md §14): every query runs against an immutable
/// ServingSnapshot obtained by one atomic shared_ptr load — no mutex is
/// ever acquired while serving TotalOf/TopK/DistinctKeys, so readers never
/// contend with ingest or with each other. Writers (batch installs and
/// speed-view refreshes) serialize on a small composition mutex and swap
/// in whole snapshots RCU-style.
class ServingLayer {
 public:
  /// \param speed  the real-time view source to compose against (not owned).
  explicit ServingLayer(const SpeedLayer* speed);

  /// Installs a freshly recomputed batch view, paired atomically with the
  /// speed layer's *current* published view. The caller (LambdaPipeline)
  /// resets the speed layer to the batch boundary first, so the composed
  /// pair satisfies batch.through_offset == speed.from_offset; readers
  /// never observe the new batch view with the old suffix (double counts)
  /// or the old batch view with the reset suffix (lost records).
  void InstallBatchView(std::shared_ptr<const BatchView> view);

  /// Re-composes the current snapshot against the speed layer's latest
  /// published view (called after every speed-view publication). Stale
  /// refreshes — a racing refresh that loses the composition lock to a
  /// newer one — are dropped, so the published pair never goes backward.
  void RefreshSpeedView();

  /// The current consistent snapshot (never null; lock-free load).
  std::shared_ptr<const ServingSnapshot> Snapshot() const {
    return snap_.load();
  }

  /// Merged total for a key: exact batch prefix + approximate suffix.
  double TotalOf(const std::string& key) const { return Snapshot()->TotalOf(key); }

  /// Merged top-k: candidate keys from both views, ranked by merged total.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const {
    return Snapshot()->TopK(k);
  }

  /// Merged distinct-key estimate (HLL union of batch and speed sketches).
  double DistinctKeys() const { return Snapshot()->DistinctKeys(); }

  /// Offset through which results are exact (batch coverage).
  uint64_t BatchThroughOffset() const {
    return Snapshot()->batch->through_offset;
  }

  /// The currently installed batch view (never null).
  std::shared_ptr<const BatchView> CurrentBatchView() const {
    return Snapshot()->batch;
  }

 private:
  /// Composes + publishes a snapshot. Caller holds compose_mu_.
  void PublishLocked(std::shared_ptr<const BatchView> batch,
                     std::shared_ptr<const SpeedView> speed);

  const SpeedLayer* speed_;
  std::mutex compose_mu_;  ///< writers only; the read path never takes it
  uint64_t next_version_ = 0;
  RcuPtr<ServingSnapshot> snap_;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_SERVING_LAYER_H_
