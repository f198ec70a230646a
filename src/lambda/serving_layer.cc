#include "lambda/serving_layer.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"

namespace streamlib::lambda {

double ServingSnapshot::TotalOf(const std::string& key) const {
  return batch->TotalOf(key) + speed->TotalOf(key);
}

std::vector<std::pair<std::string, double>> ServingSnapshot::TopK(
    size_t k) const {
  // Candidates: top keys of either view (taking 2k from each side bounds
  // the merge error the same way distributed top-k merges do).
  std::set<std::string> candidates;
  for (const auto& [key, total] : batch->TopK(2 * k)) candidates.insert(key);
  for (const auto& [key, total] : speed->TopK(2 * k)) candidates.insert(key);

  std::vector<std::pair<std::string, double>> merged;
  merged.reserve(candidates.size());
  for (const std::string& key : candidates) {
    merged.emplace_back(key, TotalOf(key));
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

ServingLayer::ServingLayer(const SpeedLayer* speed) : speed_(speed) {
  STREAMLIB_CHECK(speed != nullptr);
  std::lock_guard<std::mutex> lock(compose_mu_);
  PublishLocked(std::make_shared<const BatchView>(), speed_->View());
}

void ServingLayer::PublishLocked(std::shared_ptr<const BatchView> batch,
                                 std::shared_ptr<const SpeedView> speed) {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = ++next_version_;
  snap->batch = std::move(batch);
  snap->speed = std::move(speed);
  // Fold the distinct-key union once per snapshot. Both layers hand over
  // their sketch through the state contract, so swapping the distinct
  // sketch type (e.g. HLL -> KMV) is a TypeId change, not a serving change.
  HyperLogLog merged = snap->speed->distinct;
  if (!snap->batch->distinct_keys_blob.empty()) {
    const Status status =
        state::MergeBlob(merged, snap->batch->distinct_keys_blob);
    STREAMLIB_CHECK_MSG(status.ok(), "batch distinct blob: %s",
                        status.ToString().c_str());
  }
  snap->distinct_estimate = merged.Estimate();
  snap_.store(std::shared_ptr<const ServingSnapshot>(std::move(snap)));
}

void ServingLayer::InstallBatchView(std::shared_ptr<const BatchView> view) {
  STREAMLIB_CHECK(view != nullptr);
  std::lock_guard<std::mutex> lock(compose_mu_);
  PublishLocked(std::move(view), speed_->View());
}

void ServingLayer::RefreshSpeedView() {
  std::lock_guard<std::mutex> lock(compose_mu_);
  std::shared_ptr<const SpeedView> speed = speed_->View();
  const std::shared_ptr<const ServingSnapshot> current = snap_.load();
  // Two refreshes can race to the composition lock; whichever loses must
  // not regress the pair to an older speed view.
  if (speed->version <= current->speed->version) return;
  PublishLocked(current->batch, std::move(speed));
}

}  // namespace streamlib::lambda
