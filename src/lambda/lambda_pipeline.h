#ifndef STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_
#define STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "lambda/batch_layer.h"
#include "lambda/master_log.h"
#include "lambda/serving_layer.h"
#include "lambda/speed_layer.h"

namespace streamlib::lambda {

/// Pipeline tuning knobs.
struct LambdaConfig {
  /// Batch recompute triggers after this many new records since the last
  /// batch view (the staleness/work trade-off the F1 bench sweeps).
  uint64_t batch_interval_records = 10000;
  uint32_t cms_width = 2048;   ///< speed-layer Count-Min width
  uint32_t cms_depth = 4;      ///< speed-layer Count-Min depth
  size_t topk_capacity = 256;  ///< speed-layer SpaceSaving entries
  int hll_precision = 12;      ///< both layers' HLL precision (must match)

  /// The speed layer publishes an immutable SpeedView every this many
  /// ingests (plus on every batch hand-off). This is the staleness bound of
  /// the lock-free read path: a query may miss at most the last
  /// `speed_snapshot_interval_records - 1` ingested records. 1 = publish on
  /// every ingest (exact freshness, full sketch copy per record).
  uint64_t speed_snapshot_interval_records = 256;

  /// Typed validation of every knob; mirrors EngineConfig::Validate. The
  /// LambdaPipeline constructor checks this and aborts on invalid configs;
  /// callers taking config from the outside validate first.
  Status Validate() const;
};

/// The full Lambda Architecture of Figure 1, wired end to end:
///   1. Ingest() dispatches each event to both the batch layer's master log
///      and the speed layer.
///   2-3. The batch layer periodically extends its exact batch view over
///      the immutable log, folding in only the records that are new since
///      the last view; the serving layer indexes it.
///   4. The speed layer covers only the records the current batch view has
///      not seen, with the Section-2 sketches.
///   5. Queries merge batch + real-time views.
///
/// Concurrency (DESIGN.md §14): writers — Ingest, RunBatchNow, LoadViews —
/// serialize on one pipeline mutex, which makes the batch hand-off atomic
/// with respect to ingest (no record can land in the speed layer while its
/// offset range is being absorbed into a batch view). Readers never take
/// that mutex: every query runs against an immutable ServingSnapshot
/// obtained by a single atomic load, so read throughput scales with reader
/// threads while ingest runs at full rate.
class LambdaPipeline {
 public:
  explicit LambdaPipeline(const LambdaConfig& config);

  /// Ingests one event into both paths (Figure 1, step 1).
  void Ingest(int64_t timestamp, const std::string& key, double value);

  /// Forces a batch view over the entire current log: folds the records
  /// added since the last one this pipeline built and hands off to it.
  void RunBatchNow();

  /// Forces publication of a fresh speed view + serving snapshot, so the
  /// very next query sees everything ingested so far (bypasses the
  /// snapshot-interval staleness bound).
  void PublishSpeedSnapshot();

  /// Persists both views (batch + speed) to `path`: every sketch travels as
  /// a versioned SketchBlob inside a KvCheckpointStore image, so a restarted
  /// process answers merged queries without replaying the log.
  Status SaveViews(const std::string& path) const;

  /// Restores views written by SaveViews. The master log itself is NOT
  /// restored (it is the immutable dataset; callers re-attach or replay it
  /// separately) — only the derived views. Corrupt files leave the pipeline
  /// untouched. The restored views serve queries read-only: an Ingest while
  /// they cover more records than this pipeline's log holds aborts (it
  /// would reuse offsets the views already count), and the next batch view
  /// is built from this pipeline's own log, not from the restored one.
  Status LoadViews(const std::string& path);

  /// Merged query interface (Figure 1, step 5). Lock-free: each call runs
  /// against one immutable snapshot. Multi-query consistency (e.g. a total
  /// and a top-k answered from the same state) comes from holding the
  /// snapshot: serving().Snapshot().
  double QueryTotal(const std::string& key) const {
    return serving_.TotalOf(key);
  }
  std::vector<std::pair<std::string, double>> QueryTopK(size_t k) const {
    return serving_.TopK(k);
  }
  double QueryDistinctKeys() const { return serving_.DistinctKeys(); }

  const MasterLog& log() const { return log_; }
  const ServingLayer& serving() const { return serving_; }
  const SpeedLayer& speed() const { return speed_; }
  uint64_t batch_recomputes() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return batch_recomputes_;
  }

  /// Records not yet covered by the batch view (staleness in records).
  /// Reads the batch offset *before* the log size: the log only grows, and
  /// the batch view always covers a prefix of it, so that order guarantees
  /// size >= offset; the subtraction is additionally clamped at zero so a
  /// reordered or racing read can never wrap the unsigned difference.
  uint64_t SpeedSuffixLength() const {
    const uint64_t batch_through = serving_.BatchThroughOffset();
    const uint64_t log_size = log_.size();
    return log_size > batch_through ? log_size - batch_through : 0;
  }

 private:
  void RunBatchNowLocked();

  LambdaConfig config_;
  MasterLog log_;
  BatchLayer batch_;
  SpeedLayer speed_;
  ServingLayer serving_;
  /// Serializes writers (ingest / batch hand-off / restore). Queries never
  /// take it.
  mutable std::mutex writer_mu_;
  uint64_t batch_recomputes_ = 0;
  /// The last batch view built from log_: what the next one extends. Never
  /// a view restored by LoadViews, which may cover another log.
  std::shared_ptr<const BatchView> base_;
  /// Records covered by views restored by LoadViews and not yet replaced by
  /// a batch hand-off; 0 otherwise. Ingest requires log_ to hold at least
  /// this many records.
  uint64_t restored_through_ = 0;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_
