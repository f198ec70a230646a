#include "lambda/batch_layer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/serde.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"

namespace streamlib::lambda {

namespace {
// Store keys used by SnapshotTo/RestoreFrom.
std::string DistinctKey(const std::string& prefix) {
  return prefix + "/distinct_keys";
}
std::string MetaKey(const std::string& prefix) { return prefix + "/meta"; }

// Adds log[from, to) to `view`'s totals and to `distinct`, in offset order,
// and moves the view's end to `to`.
void Fold(const MasterLog& log, uint64_t from, uint64_t to, BatchView* view,
          HyperLogLog* distinct) {
  log.ForEach(from, to, [view, distinct](const LogRecord& r) {
    view->key_totals[r.key] += r.value;
    distinct->Add(r.key);
  });
  view->through_offset = to;
  view->distinct_keys_blob = state::ToBlob(*distinct);
}
}  // namespace

double BatchView::TotalOf(const std::string& key) const {
  auto it = key_totals.find(key);
  return it == key_totals.end() ? 0.0 : it->second;
}

const std::vector<const BatchView::Entry*>& BatchView::Ranking::Get(
    const std::unordered_map<std::string, double>& totals) {
  if (built_.load(std::memory_order_acquire)) return order_;
  std::lock_guard<std::mutex> lock(build_mu_);
  if (!built_.load(std::memory_order_relaxed)) {
    order_.reserve(totals.size());
    for (const Entry& entry : totals) order_.push_back(&entry);
    std::sort(order_.begin(), order_.end(),
              [](const Entry* a, const Entry* b) {
                return a->second != b->second ? a->second > b->second
                                              : a->first < b->first;
              });
    built_.store(true, std::memory_order_release);
  }
  return order_;
}

std::vector<std::pair<std::string, double>> BatchView::TopK(size_t k) const {
  const std::vector<const Entry*>& order = ranking_.Get(key_totals);
  STREAMLIB_DCHECK(order.size() == key_totals.size());
  const size_t n = std::min(k, order.size());
  std::vector<std::pair<std::string, double>> top;
  top.reserve(n);
  for (size_t i = 0; i < n; i++) top.emplace_back(*order[i]);
  return top;
}

void BatchView::SnapshotTo(platform::KvCheckpointStore* store,
                           const std::string& prefix) const {
  store->Put(DistinctKey(prefix), distinct_keys_blob);
  ByteWriter w;
  w.PutVarint(through_offset);
  w.PutVarint(key_totals.size());
  for (const auto& [key, total] : key_totals) {
    w.PutString(key);
    w.PutDouble(total);
  }
  store->Put(MetaKey(prefix), w.TakeBytes());
}

Result<BatchView> BatchView::RestoreFrom(
    const platform::KvCheckpointStore& store, const std::string& prefix) {
  BatchView view;
  Result<std::vector<uint8_t>> blob = store.Fetch(DistinctKey(prefix));
  STREAMLIB_RETURN_NOT_OK(blob.status());
  // Validate through the envelope before accepting the bytes verbatim.
  Result<HyperLogLog> distinct =
      state::FromBlob<HyperLogLog>(blob.value());
  STREAMLIB_RETURN_NOT_OK(distinct.status());
  view.distinct_keys_blob = std::move(blob).value();

  Result<std::vector<uint8_t>> meta = store.Fetch(MetaKey(prefix));
  STREAMLIB_RETURN_NOT_OK(meta.status());
  ByteReader r(meta.value());
  uint64_t num_keys = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&view.through_offset));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_keys));
  if (num_keys > r.remaining()) {
    return Status::Corruption("batch view: key count exceeds payload");
  }
  for (uint64_t i = 0; i < num_keys; i++) {
    std::string key;
    double total = 0.0;
    STREAMLIB_RETURN_NOT_OK(r.GetString(&key));
    STREAMLIB_RETURN_NOT_OK(r.GetDouble(&total));
    if (!std::isfinite(total)) {
      return Status::Corruption("batch view: malformed total");
    }
    view.key_totals[key] = total;
  }
  if (!r.AtEnd()) {
    return Status::Corruption("batch view: trailing bytes");
  }
  return view;
}

BatchView BatchLayer::Extend(const BatchView& base,
                             const MasterLog& log) const {
  const uint64_t end = log.size();
  STREAMLIB_CHECK_MSG(base.through_offset <= end,
                      "batch base covers %llu records, the log holds %llu",
                      static_cast<unsigned long long>(base.through_offset),
                      static_cast<unsigned long long>(end));
  HyperLogLog distinct(12);
  if (!base.distinct_keys_blob.empty()) {
    Result<HyperLogLog> decoded =
        state::FromBlob<HyperLogLog>(base.distinct_keys_blob);
    STREAMLIB_CHECK_MSG(decoded.ok(), "batch base distinct blob: %s",
                        decoded.status().ToString().c_str());
    distinct = std::move(decoded).value();
  }
  BatchView view;
  view.key_totals = base.key_totals;
  Fold(log, base.through_offset, end, &view, &distinct);
  return view;
}

BatchView BatchLayer::Recompute(const MasterLog& log) const {
  return RecomputePrefix(log, log.size());
}

BatchView BatchLayer::RecomputePrefix(const MasterLog& log,
                                      uint64_t through_offset) const {
  BatchView view;
  HyperLogLog distinct(12);
  Fold(log, 0, std::min<uint64_t>(through_offset, log.size()), &view,
       &distinct);
  return view;
}

}  // namespace streamlib::lambda
