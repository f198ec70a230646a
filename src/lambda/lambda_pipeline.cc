#include "lambda/lambda_pipeline.h"

#include "common/check.h"

namespace streamlib::lambda {

Status LambdaConfig::Validate() const {
  if (batch_interval_records < 1) {
    return Status::InvalidArgument("batch_interval_records must be >= 1");
  }
  if (cms_width == 0 || cms_depth == 0) {
    return Status::InvalidArgument(
        "speed-layer Count-Min geometry must be non-zero (width and depth)");
  }
  if (topk_capacity == 0) {
    return Status::InvalidArgument("topk_capacity must be >= 1");
  }
  // The batch layer's distinct-key HLL is fixed at precision 12; merged
  // queries need both layers on the same register geometry.
  if (hll_precision != 12) {
    return Status::OutOfRange(
        "hll_precision must be 12 (batch view HLL precision is fixed at 12; "
        "the speed layer must match for merges)");
  }
  if (speed_snapshot_interval_records < 1) {
    return Status::InvalidArgument(
        "speed_snapshot_interval_records must be >= 1 (1 publishes on every "
        "ingest)");
  }
  return Status::OK();
}

LambdaPipeline::LambdaPipeline(const LambdaConfig& config)
    : config_(config),
      speed_(config.cms_width, config.cms_depth, config.topk_capacity,
             config.hll_precision, config.speed_snapshot_interval_records),
      serving_(&speed_),
      base_(serving_.CurrentBatchView()) {
  const Status status = config.Validate();
  STREAMLIB_CHECK_MSG(status.ok(), "invalid LambdaConfig: %s",
                      status.ToString().c_str());
}

void LambdaPipeline::Ingest(int64_t timestamp, const std::string& key,
                            double value) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (restored_through_ > 0) {
    STREAMLIB_CHECK_MSG(
        log_.size() >= restored_through_,
        "Ingest after LoadViews: the restored views cover %llu records but "
        "the log holds %llu, so new offsets would repeat covered ones",
        static_cast<unsigned long long>(restored_through_),
        static_cast<unsigned long long>(log_.size()));
  }
  const uint64_t offset = log_.Append(timestamp, key, value);
  LogRecord record;
  record.offset = offset;
  record.timestamp = timestamp;
  record.key = key;
  record.value = value;
  if (speed_.Ingest(record)) {
    serving_.RefreshSpeedView();  // A fresh SpeedView was published.
  }

  // base_ covers a prefix of log_, so the difference cannot wrap.
  if (offset + 1 - base_->through_offset >= config_.batch_interval_records) {
    RunBatchNowLocked();
  }
}

void LambdaPipeline::RunBatchNow() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  RunBatchNowLocked();
}

void LambdaPipeline::RunBatchNowLocked() {
  // Writers hold writer_mu_, so log_ cannot grow during the fold. With no
  // new records, base_ already covers the whole log and is re-installed.
  if (log_.size() > base_->through_offset) {
    base_ = std::make_shared<const BatchView>(batch_.Extend(*base_, log_));
  }
  // Hand-off order matters: reset the speed layer to the batch boundary
  // first (publishing an empty suffix view), then install the batch view,
  // which composes the new (batch, speed) pair in ONE atomic snapshot swap.
  // Readers either see the old pair (old batch + old suffix) or the new
  // pair (new batch + empty suffix) — never a torn mix. Writers are
  // serialized on writer_mu_, so no record can be ingested between the
  // fold and the reset (the data-loss race the unserialized hand-off had).
  speed_.Reset(base_->through_offset);
  serving_.InstallBatchView(base_);
  restored_through_ = 0;
  batch_recomputes_++;
}

void LambdaPipeline::PublishSpeedSnapshot() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  speed_.PublishSnapshot();
  serving_.RefreshSpeedView();
}

Status LambdaPipeline::SaveViews(const std::string& path) const {
  // Writers are locked out so the (batch, speed) image is one consistent
  // pair even while ingest threads are running.
  std::lock_guard<std::mutex> lock(writer_mu_);
  platform::KvCheckpointStore store;
  serving_.CurrentBatchView()->SnapshotTo(&store, "batch");
  speed_.SnapshotTo(&store, "speed");
  return store.SaveToFile(path);
}

Status LambdaPipeline::LoadViews(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  platform::KvCheckpointStore store;
  STREAMLIB_RETURN_NOT_OK(store.LoadFromFile(path));
  Result<BatchView> view = BatchView::RestoreFrom(store, "batch");
  STREAMLIB_RETURN_NOT_OK(view.status());
  // RestoreFrom validates every blob before mutating, so ordering it first
  // means a corrupt file cannot leave the pipeline half-restored. The
  // restore publishes a fresh SpeedView; InstallBatchView then pairs it
  // with the restored batch view in one snapshot swap. base_ stays: the
  // restored view need not describe log_.
  STREAMLIB_RETURN_NOT_OK(speed_.RestoreFrom(store, "speed"));
  serving_.InstallBatchView(
      std::make_shared<const BatchView>(std::move(view).value()));
  restored_through_ = serving_.Snapshot()->through_offset();
  return Status::OK();
}

}  // namespace streamlib::lambda
