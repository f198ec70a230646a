// Shared fixtures for the chaos (fault-injection) suites: a spout that
// replays failed tuples until everything is acked, and a bolt that keeps
// its state in a KvCheckpointStore with MillWheel-style checkpoint-then-ack
// dedup — the two components the at-least-once and exactly-once-state
// verification tests are built from.

#ifndef STREAMLIB_TESTS_CHAOS_UTIL_H_
#define STREAMLIB_TESTS_CHAOS_UTIL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/serde.h"
#include "platform/checkpoint.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// Scales a wall-clock ack timeout for sanitized builds. A chaos test's
/// timeout must expire only structurally unresolvable roots; ASan and TSan
/// slow execution several-fold, so a window sized for an optimized build
/// would also expire healthy ones there.
inline double SanitizerScaled(double seconds) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return seconds * 10;
#else
  return seconds;
#endif
}

/// State shared between a ReplaySpout and the test body. All access is
/// mutex-guarded: NextTuple runs on the spout thread while OnAck/OnFail
/// arrive from the acker thread.
struct ReplayState {
  std::mutex mu;
  std::deque<int64_t> pending;                    // Not yet emitted.
  std::unordered_map<uint64_t, int64_t> inflight; // root id -> payload.
  uint64_t acked = 0;
  uint64_t failed = 0;   // OnFail deliveries (each payload re-queued).
  uint64_t emitted = 0;  // Total emissions including replays.

  explicit ReplayState(int64_t n) {
    for (int64_t i = 0; i < n; i++) pending.push_back(i);
  }
};

/// At-least-once source with real replay semantics: every payload stays the
/// spout's responsibility until OnAck — OnFail re-queues it for another
/// emission. NextTuple idles (without ending the stream) while payloads are
/// in flight, so the run only finishes once every payload was fully acked:
/// "zero root-tuple loss" is the termination condition itself, and the test
/// then just verifies delivery counts.
class ReplaySpout : public Spout {
 public:
  explicit ReplaySpout(std::shared_ptr<ReplayState> state)
      : state_(std::move(state)) {}

  bool NextTuple(OutputCollector* collector) override {
    int64_t payload;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->pending.empty()) {
        if (state_->inflight.empty()) return false;  // All acked: done.
        // In-flight tuples may still fail back to us; idle-poll. The sleep
        // keeps the spout loop from spinning while the acker works.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return true;
      }
      payload = state_->pending.front();
      state_->pending.pop_front();
    }
    collector->Emit(Tuple::Of(payload));
    const uint64_t root = collector->LastRootId();
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->emitted++;
    // The root cannot resolve before this insert: its kInit acker event is
    // staged in the collector and only flushes after NextTuple returns.
    state_->inflight[root] = payload;
    return true;
  }

  void OnAck(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->inflight.erase(root_id);
    state_->acked++;
  }

  void OnFail(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->inflight.find(root_id);
    if (it == state_->inflight.end()) return;
    state_->pending.push_back(it->second);  // Replay under a fresh root.
    state_->inflight.erase(it);
    state_->failed++;
  }

 private:
  std::shared_ptr<ReplayState> state_;
};

/// Stateful sink with MillWheel checkpoint-then-ack semantics: per-payload
/// counts plus a DedupLedger, both serialized into a KvCheckpointStore
/// entry on every Execute — crucially *before* the engine records the ack
/// (the engine stages the ack only after Execute returns). A crash between
/// the two (exactly what FaultKind::kTaskCrash injects) therefore loses the
/// ack but never the state, and the redelivered tuple is recognized by the
/// restored ledger instead of double-counting.
class CheckpointedCountBolt : public Bolt {
 public:
  CheckpointedCountBolt(KvCheckpointStore* store, std::string key_prefix)
      : store_(store), key_prefix_(std::move(key_prefix)) {}

  void Prepare(uint32_t task_index, uint32_t num_tasks) override {
    (void)num_tasks;
    key_ = key_prefix_ + ":" + std::to_string(task_index);
    // Restore path — runs both on first start (NotFound: begin empty) and
    // after an injected crash-restart (latest checkpoint wins).
    counts_.clear();
    ledger_ = DedupLedger();
    Result<std::vector<uint8_t>> state = store_->Fetch(key_);
    if (state.ok()) RestoreFrom(state.value());
  }

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    const int64_t payload = input.Int(0);
    // Payloads double as sequence numbers: replays and injected duplicates
    // redeliver the same payload, and the ledger drops them.
    if (!ledger_.CheckAndRecord(/*producer=*/0,
                                static_cast<uint64_t>(payload))) {
      return;
    }
    counts_[payload]++;
    store_->Put(key_, SerializeState());
  }

  const std::unordered_map<int64_t, uint64_t>& counts() const {
    return counts_;
  }

  /// Decodes a serialized state blob into (payload -> count); the static
  /// form lets tests inspect the store's bytes directly.
  static std::unordered_map<int64_t, uint64_t> DecodeCounts(
      const std::vector<uint8_t>& bytes) {
    CheckpointedCountBolt tmp(nullptr, "");
    tmp.RestoreFrom(bytes);
    return tmp.counts_;
  }

 private:
  std::vector<uint8_t> SerializeState() const {
    ByteWriter w;
    w.PutVarint(counts_.size());
    for (const auto& [payload, count] : counts_) {
      w.PutI64(payload);
      w.PutU64(count);
    }
    const std::vector<uint8_t> ledger_bytes = ledger_.Serialize();
    w.PutVarint(ledger_bytes.size());
    w.PutBytes(ledger_bytes.data(), ledger_bytes.size());
    return w.TakeBytes();
  }

  void RestoreFrom(const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    uint64_t n = 0;
    if (!r.GetVarint(&n).ok()) return;
    for (uint64_t i = 0; i < n; i++) {
      int64_t payload = 0;
      uint64_t count = 0;
      if (!r.GetI64(&payload).ok() || !r.GetU64(&count).ok()) return;
      counts_[payload] = count;
    }
    uint64_t ledger_len = 0;
    if (!r.GetVarint(&ledger_len).ok()) return;
    std::vector<uint8_t> ledger_bytes(ledger_len);
    if (!r.GetBytes(ledger_bytes.data(), ledger_len).ok()) return;
    Result<DedupLedger> ledger = DedupLedger::Deserialize(ledger_bytes);
    if (ledger.ok()) ledger_ = std::move(ledger.value());
  }

  KvCheckpointStore* store_;  // Not owned; must outlive the engine run.
  const std::string key_prefix_;
  std::string key_;
  std::unordered_map<int64_t, uint64_t> counts_;
  DedupLedger ledger_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_TESTS_CHAOS_UTIL_H_
