#ifndef STREAMLIB_PLATFORM_STREAM_OPERATORS_H_
#define STREAMLIB_PLATFORM_STREAM_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/serde.h"
#include "common/state.h"
#include "platform/checkpoint.h"
#include "platform/epoch.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// Checkpointing knobs for SketchBolt. With a null store the bolt is
/// stateless-on-failure (pure recompute); with a store it snapshots its
/// sketch as a versioned SketchBlob every `every` tuples and on Finish,
/// and restores the latest blob in Prepare — the generic replacement for
/// hand-rolled per-bolt tuple snapshots.
struct SketchCheckpoint {
  KvCheckpointStore* store = nullptr;  ///< not owned; may be null
  std::string key_prefix;              ///< store key = prefix + ":" + task
  uint64_t every = 256;                ///< Put frequency in tuples
};

/// Generic sketch-maintaining bolt over any state::MergeableSketch: applies
/// a caller-supplied update per tuple, checkpoints through the SketchBlob
/// envelope, and on end-of-stream emits its sketch as a single blob tuple
/// (field 0: the blob bytes as a string) for a downstream combiner.
///
/// The key-sharded partial-aggregation pattern (the mergeable-summaries
/// deployment from Agarwal et al. applied to a Storm-style topology): run N
/// parallel SketchBolt tasks behind a fields grouping, then subscribe one
/// SketchCombinerBolt via a global grouping — each shard's final blob is
/// merged into one sketch whose estimates equal a single-instance run.
template <state::MergeableSketch T>
class SketchBolt : public Bolt {
 public:
  using UpdateFn = std::function<void(T&, const Tuple&)>;
  /// Batched update: applies a whole engine batch in one call (e.g. one
  /// UpdateBatch on a BatchUpdatable sketch). Must leave the sketch in the
  /// same state as applying the scalar UpdateFn per tuple in order.
  using BatchUpdateFn = std::function<void(T&, std::span<const Tuple* const>)>;

  SketchBolt(T initial, UpdateFn update, SketchCheckpoint checkpoint = {})
      : sketch_(std::move(initial)),
        update_(std::move(update)),
        checkpoint_(std::move(checkpoint)) {}

  /// With a batched kernel: the engine's fused path lands in one
  /// batch_update call per input batch; everything else (checkpointing,
  /// Finish, restore) is shared with the scalar form.
  SketchBolt(T initial, UpdateFn update, BatchUpdateFn batch_update,
             SketchCheckpoint checkpoint = {})
      : sketch_(std::move(initial)),
        update_(std::move(update)),
        batch_update_(std::move(batch_update)),
        checkpoint_(std::move(checkpoint)) {}

  void Prepare(uint32_t task_index, uint32_t num_tasks) override {
    (void)num_tasks;
    if (checkpoint_.store == nullptr) return;
    key_ = checkpoint_.key_prefix + ":" + std::to_string(task_index);
    Result<std::vector<uint8_t>> blob = checkpoint_.store->Fetch(key_);
    if (!blob.ok()) return;  // NotFound: first start, keep the initial sketch.
    Result<T> restored = state::FromBlob<T>(blob.value());
    STREAMLIB_CHECK_MSG(restored.ok(), "sketch restore failed: %s",
                        restored.status().ToString().c_str());
    sketch_ = std::move(restored).value();
  }

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    update_(sketch_, input);
    AfterUpdates(1);
  }

  /// Pure accumulator: never emits from execution, so the engine may fuse
  /// whole batches into one call.
  bool BatchCapable() const override { return true; }

  void ExecuteBatch(std::span<const Tuple* const> inputs,
                    OutputCollector* collector) override {
    (void)collector;
    if (batch_update_) {
      batch_update_(sketch_, inputs);
    } else {
      for (const Tuple* input : inputs) update_(sketch_, *input);
    }
    AfterUpdates(inputs.size());
  }

  void Finish(OutputCollector* collector) override {
    if (checkpoint_.store != nullptr) {
      checkpoint_.store->Put(key_, state::ToBlob(sketch_));
    }
    const std::vector<uint8_t> blob = state::ToBlob(sketch_);
    collector->Emit(Tuple::Of(std::string(blob.begin(), blob.end())));
  }

  /// Debugger state inspection: the live sketch as a SketchBlob.
  std::optional<std::vector<uint8_t>> StateBlob() const override {
    return state::ToBlob(sketch_);
  }

  /// Epoch-barrier frames: the sketch travels through the same SketchBlob
  /// envelope the periodic checkpoints use.
  std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) override {
    (void)epoch;
    return state::ToBlob(sketch_);
  }
  Status RestoreEpoch(uint64_t epoch,
                      const std::vector<uint8_t>& state) override {
    (void)epoch;
    Result<T> restored = state::FromBlob<T>(state);
    STREAMLIB_RETURN_NOT_OK(restored.status());
    sketch_ = std::move(restored).value();
    return Status::OK();
  }

  const T& sketch() const { return sketch_; }

 private:
  /// Checkpoint cadence, counted in tuples but evaluated only at update
  /// boundaries: a batch is applied in full before the threshold check, so
  /// every snapshot the store sees is a between-batches consistent sketch —
  /// never one with half a batch applied.
  void AfterUpdates(uint64_t n) {
    if (checkpoint_.store == nullptr) return;
    since_checkpoint_ += n;
    if (since_checkpoint_ >= checkpoint_.every) {
      checkpoint_.store->Put(key_, state::ToBlob(sketch_));
      since_checkpoint_ = 0;
    }
  }

  T sketch_;
  UpdateFn update_;
  BatchUpdateFn batch_update_;
  SketchCheckpoint checkpoint_;
  std::string key_;
  uint64_t since_checkpoint_ = 0;
};

/// Builds a SketchBolt BatchUpdateFn for a BatchUpdatable sketch keyed by
/// one tuple field: hashes the field per tuple with the sketch's own seed
/// (so digests match the scalar `sketch.Add(field)` path bit for bit) and
/// feeds chunks into one AddHashBatch call. String and int64 fields are
/// supported — the two key shapes the workload generators emit.
template <typename T>
  requires state::BatchUpdatable<T>
std::function<void(T&, std::span<const Tuple* const>)> FieldKeyBatchUpdate(
    size_t field_index) {
  return [field_index](T& sketch, std::span<const Tuple* const> inputs) {
    constexpr size_t kChunk = 64;
    uint64_t digests[kChunk];
    size_t n = 0;
    for (const Tuple* input : inputs) {
      const Value& v = input->field(field_index);
      if (const std::string* s = std::get_if<std::string>(&v)) {
        digests[n++] = Murmur3_64(s->data(), s->size(), T::kHashSeed);
      } else if (const int64_t* i = std::get_if<int64_t>(&v)) {
        digests[n++] = HashInt64(static_cast<uint64_t>(*i), T::kHashSeed);
      } else {
        STREAMLIB_CHECK_MSG(false,
                            "FieldKeyBatchUpdate: field %zu is neither "
                            "string nor int64",
                            field_index);
      }
      if (n == kChunk) {
        sketch.AddHashBatch(std::span<const uint64_t>(digests, n));
        n = 0;
      }
    }
    if (n > 0) sketch.AddHashBatch(std::span<const uint64_t>(digests, n));
  };
}

/// Merge side of the sharded pattern: consumes the blob tuples emitted by
/// upstream SketchBolt tasks (subscribe with a global grouping so every
/// shard lands on one task), folds each into its sketch via the envelope,
/// and on end-of-stream either invokes `on_result` or re-emits the merged
/// blob for further combining (multi-level merge trees).
template <state::MergeableSketch T>
class SketchCombinerBolt : public Bolt {
 public:
  using ResultFn = std::function<void(const T&, OutputCollector*)>;

  explicit SketchCombinerBolt(T initial, ResultFn on_result = nullptr)
      : merged_(std::move(initial)), on_result_(std::move(on_result)) {}

  /// Pure accumulator (emits only from Finish): eligible for the engine's
  /// fused batch path via the default per-tuple ExecuteBatch loop.
  bool BatchCapable() const override { return true; }

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    const std::string& bytes = input.Str(0);
    const std::vector<uint8_t> blob(bytes.begin(), bytes.end());
    const Status status = state::MergeBlob(merged_, blob);
    STREAMLIB_CHECK_MSG(status.ok(), "shard blob merge failed: %s",
                        status.ToString().c_str());
    shards_merged_++;
  }

  void Finish(OutputCollector* collector) override {
    if (on_result_) {
      on_result_(merged_, collector);
      return;
    }
    const std::vector<uint8_t> blob = state::ToBlob(merged_);
    collector->Emit(Tuple::Of(std::string(blob.begin(), blob.end())));
  }

  /// Debugger state inspection: the merged sketch as a SketchBlob.
  std::optional<std::vector<uint8_t>> StateBlob() const override {
    return state::ToBlob(merged_);
  }

  /// Epoch-barrier frames for the merge side.
  std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) override {
    (void)epoch;
    return state::ToBlob(merged_);
  }
  Status RestoreEpoch(uint64_t epoch,
                      const std::vector<uint8_t>& state) override {
    (void)epoch;
    Result<T> restored = state::FromBlob<T>(state);
    STREAMLIB_RETURN_NOT_OK(restored.status());
    merged_ = std::move(restored).value();
    return Status::OK();
  }

  const T& merged() const { return merged_; }
  uint64_t shards_merged() const { return shards_merged_; }

 private:
  T merged_;
  ResultFn on_result_;
  uint64_t shards_merged_ = 0;
};

/// Tumbling aggregation operator — the paper's "time windows, aggregation"
/// streaming operators. Tuples are (key: string, value: double); every
/// `window_size` inputs the bolt emits (key, sum, count) for each key seen
/// in the window and resets. Deploy behind a fields grouping so each key's
/// aggregates are complete.
class TumblingAggregateBolt : public Bolt {
 public:
  explicit TumblingAggregateBolt(uint64_t window_size)
      : window_size_(window_size) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    auto& slot = aggregates_[input.Str(0)];
    slot.first += input.Double(1);
    slot.second++;
    if (++in_window_ >= window_size_) Flush(collector);
  }

  void Finish(OutputCollector* collector) override { Flush(collector); }

 private:
  void Flush(OutputCollector* collector) {
    for (const auto& [key, agg] : aggregates_) {
      collector->Emit(Tuple::Of(key, agg.first,
                                static_cast<int64_t>(agg.second)));
    }
    aggregates_.clear();
    in_window_ = 0;
  }

  uint64_t window_size_;
  uint64_t in_window_ = 0;
  std::unordered_map<std::string, std::pair<double, uint64_t>> aggregates_;
};

/// Windowed stream-stream equi-join — the Photon problem (cited as [40]:
/// "fault-tolerant and scalable joining of continuous data streams").
/// Two logical streams arrive tagged by their side in field 0 ("L"/"R"),
/// keyed by field 1, with one payload field 2; each side retains its last
/// `window_per_side` tuples (per task), and every arrival probes the
/// opposite window, emitting (key, left payload, right payload) for each
/// match — so out-of-order pairs within the window join exactly once per
/// pairing. Deploy behind Fields(1) grouping so both sides of a key meet
/// in the same task.
class WindowJoinBolt : public Bolt {
 public:
  /// \param window_per_side  tuples retained per side per task.
  explicit WindowJoinBolt(size_t window_per_side)
      : window_(window_per_side) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    const std::string& side = input.Str(0);
    const std::string& key = input.Str(1);
    const bool is_left = side == "L";
    Side& mine = is_left ? left_ : right_;
    Side& other = is_left ? right_ : left_;

    // Probe the opposite window.
    auto it = other.by_key.find(key);
    if (it != other.by_key.end()) {
      for (const Tuple& match : it->second) {
        if (is_left) {
          collector->Emit(Tuple::Of(key, input.field(2), match.field(2)));
        } else {
          collector->Emit(Tuple::Of(key, match.field(2), input.field(2)));
        }
        emitted_joins_++;
      }
    }

    // Insert into my window; evict my oldest beyond the bound.
    mine.by_key[key].push_back(input);
    mine.order.push_back(key);
    if (mine.order.size() > window_) {
      const std::string& oldest_key = mine.order.front();
      auto victim = mine.by_key.find(oldest_key);
      if (victim != mine.by_key.end()) {
        victim->second.pop_front();
        if (victim->second.empty()) mine.by_key.erase(victim);
      }
      mine.order.pop_front();
    }
  }

  uint64_t emitted_joins() const { return emitted_joins_; }

 private:
  struct Side {
    std::unordered_map<std::string, std::deque<Tuple>> by_key;
    std::deque<std::string> order;  // Arrival order for eviction.
  };

  size_t window_;
  Side left_;
  Side right_;
  uint64_t emitted_joins_ = 0;
};

/// Predicate filter operator (the paper's "filtering" operator): passes
/// tuples satisfying a caller-supplied predicate.
class FilterBolt : public Bolt {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  explicit FilterBolt(Predicate predicate)
      : predicate_(std::move(predicate)) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    if (predicate_(input)) collector->Emit(input);
  }

 private:
  Predicate predicate_;
};

/// Enrichment operator (the paper's "enrichment" operator): appends a
/// value looked up from a reference table by the key in field `key_index`;
/// misses pass through with a default.
class EnrichBolt : public Bolt {
 public:
  EnrichBolt(std::unordered_map<std::string, Value> reference,
             size_t key_index, Value default_value)
      : reference_(std::move(reference)),
        key_index_(key_index),
        default_(std::move(default_value)) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    std::vector<Value> values = input.values();
    auto it = reference_.find(input.Str(key_index_));
    values.push_back(it == reference_.end() ? default_ : it->second);
    collector->Emit(Tuple(std::move(values)));
  }

 private:
  std::unordered_map<std::string, Value> reference_;
  size_t key_index_;
  Value default_;
};

/// Rescalable sketch shard: state lives in key groups (epoch.h), the
/// Flink-style unit of state redistribution. The key in `key_field` hashes
/// (with the fields-grouping seed, so group ownership agrees with routing)
/// into one of kNumKeyGroups groups, each holding its own sketch plus its
/// own DedupLedger — so when RescaleEpochFrames re-deals the groups across
/// a different task count, the duplicate-suppression state moves *with*
/// the keys it protects. Deploy behind Fields(key_field) grouping with a
/// parallelism dividing kNumKeyGroups.
///
/// With `dedup_seq_field` set, that int64 field is a unique payload
/// sequence number and each group's ledger drops redeliveries — the
/// checkpoint-then-ack exactly-once recipe, rescale-safe.
template <state::MergeableSketch T>
class KeyGroupedSketchBolt : public Bolt {
 public:
  using MakeFn = std::function<T()>;
  using UpdateFn = std::function<void(T&, const Tuple&)>;

  KeyGroupedSketchBolt(MakeFn make, UpdateFn update, size_t key_field,
                       std::optional<size_t> dedup_seq_field = std::nullopt)
      : make_(std::move(make)),
        update_(std::move(update)),
        key_field_(key_field),
        dedup_seq_field_(dedup_seq_field) {}

  void Prepare(uint32_t task_index, uint32_t num_tasks) override {
    STREAMLIB_CHECK_MSG(num_tasks > 0 && kNumKeyGroups % num_tasks == 0,
                        "KeyGroupedSketchBolt parallelism %u must divide %u "
                        "key groups",
                        num_tasks, kNumKeyGroups);
    task_index_ = task_index;
    num_tasks_ = num_tasks;
  }

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    const uint64_t h =
        HashOfValue(input.field(key_field_), kFieldsGroupingHashSeed);
    const uint32_t g = static_cast<uint32_t>(h % kNumKeyGroups);
    auto it = groups_.find(g);
    if (it == groups_.end()) {
      it = groups_.emplace(g, Group{make_(), DedupLedger{}}).first;
    }
    Group& group = it->second;
    if (dedup_seq_field_.has_value() &&
        !group.ledger.CheckAndRecord(
            0, static_cast<uint64_t>(input.Int(*dedup_seq_field_)))) {
      return;  // Redelivery of an already-applied payload: drop.
    }
    update_(group.sketch, input);
  }

  /// Pure accumulator (emits only from Finish).
  bool BatchCapable() const override { return true; }

  /// Epoch frame: the grouped-state envelope (EncodeGroupedState), each
  /// group payload = [sketch SketchBlob][ledger bytes], both
  /// length-prefixed. std::map iteration and the ledger's canonical form
  /// keep the bytes deterministic.
  std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) override {
    (void)epoch;
    constexpr size_t kMaxVarintBytes = 10;
    std::map<uint32_t, std::vector<uint8_t>> grouped;
    for (const auto& [g, group] : groups_) {
      const std::vector<uint8_t> sketch_blob = state::ToBlob(group.sketch);
      const size_t ledger_size = group.ledger.SerializedSize();
      ByteWriter w;
      w.Reserve(2 * kMaxVarintBytes + sketch_blob.size() + ledger_size);
      w.PutVarint(sketch_blob.size());
      w.PutBytes(sketch_blob.data(), sketch_blob.size());
      w.PutVarint(ledger_size);
      group.ledger.SerializeTo(w);
      grouped.emplace(g, std::move(w).TakeBytes());
    }
    return EncodeGroupedState(grouped);
  }

  Status RestoreEpoch(uint64_t epoch,
                      const std::vector<uint8_t>& state) override {
    (void)epoch;
    Result<std::map<uint32_t, std::vector<uint8_t>>> grouped =
        DecodeGroupedState(state);
    STREAMLIB_RETURN_NOT_OK(grouped.status());
    std::map<uint32_t, Group> restored;
    for (const auto& [g, payload] : grouped.value()) {
      if (g % num_tasks_ != task_index_) {
        return Status::InvalidArgument(
            "key group " + std::to_string(g) + " does not belong to task " +
            std::to_string(task_index_) + "/" + std::to_string(num_tasks_) +
            " (frame not rescaled?)");
      }
      ByteReader r(payload);
      uint64_t sketch_len = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&sketch_len));
      if (sketch_len > r.remaining()) {
        return Status::Corruption("key-group payload truncated (sketch)");
      }
      std::vector<uint8_t> sketch_bytes(sketch_len);
      STREAMLIB_RETURN_NOT_OK(r.GetBytes(sketch_bytes.data(), sketch_len));
      uint64_t ledger_len = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&ledger_len));
      if (ledger_len > r.remaining()) {
        return Status::Corruption("key-group payload truncated (ledger)");
      }
      std::vector<uint8_t> ledger_bytes(ledger_len);
      STREAMLIB_RETURN_NOT_OK(r.GetBytes(ledger_bytes.data(), ledger_len));
      Result<T> sketch = state::FromBlob<T>(sketch_bytes);
      STREAMLIB_RETURN_NOT_OK(sketch.status());
      Result<DedupLedger> ledger = DedupLedger::Deserialize(ledger_bytes);
      STREAMLIB_RETURN_NOT_OK(ledger.status());
      restored.emplace(g, Group{std::move(sketch).value(),
                                std::move(ledger).value()});
    }
    groups_ = std::move(restored);
    return Status::OK();
  }

  /// All of this task's groups folded into one sketch (query side).
  T Merged() const {
    T out = make_();
    for (const auto& [g, group] : groups_) {
      const Status merged = state::MergeBlob(out, state::ToBlob(group.sketch));
      STREAMLIB_CHECK_MSG(merged.ok(), "key-group merge failed: %s",
                          merged.ToString().c_str());
    }
    return out;
  }

  void Finish(OutputCollector* collector) override {
    const std::vector<uint8_t> blob = state::ToBlob(Merged());
    collector->Emit(Tuple::Of(std::string(blob.begin(), blob.end())));
  }

  std::optional<std::vector<uint8_t>> StateBlob() const override {
    return state::ToBlob(Merged());
  }

  size_t num_groups() const { return groups_.size(); }

 private:
  struct Group {
    T sketch;
    DedupLedger ledger;
  };

  MakeFn make_;
  UpdateFn update_;
  size_t key_field_;
  std::optional<size_t> dedup_seq_field_;
  uint32_t task_index_ = 0;
  uint32_t num_tasks_ = 1;
  std::map<uint32_t, Group> groups_;  // Ordered: deterministic frame bytes.
};

/// Replayable integer-sequence source with full epoch-snapshot support —
/// the chaos suite's reference spout. Emits payloads 0..limit-1 (through
/// `make_tuple` when given, else as single-field int tuples); under
/// tracked delivery it keeps every payload owed until acked, re-queueing
/// failures, and only declares exhaustion once nothing is owed.
///
/// `halt_at` >= 0 simulates a mid-stream source crash: the spout stops
/// dead once the cursor reaches it, abandoning pending and in-flight
/// payloads exactly as a killed process would. A later run restoring its
/// epoch frame (cursor + owed payloads) re-emits precisely what the
/// snapshot still owed.
class ReplayableSequenceSpout : public Spout {
 public:
  using TupleFn = std::function<Tuple(int64_t)>;

  explicit ReplayableSequenceSpout(int64_t limit, TupleFn make_tuple = nullptr,
                                   int64_t halt_at = -1)
      : limit_(limit),
        make_tuple_(std::move(make_tuple)),
        halt_at_(halt_at) {}

  bool NextTuple(OutputCollector* collector) override {
    int64_t seq = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (halt_at_ >= 0 && cursor_ >= halt_at_) {
        return false;  // Simulated crash: abandon everything still owed.
      }
      if (!pending_.empty()) {
        seq = pending_.front();
        pending_.pop_front();
      } else if (cursor_ < limit_) {
        seq = cursor_++;
      } else if (inflight_.empty()) {
        return false;  // Every payload emitted and acked.
      }
    }
    if (seq < 0) {
      // Only in-flight payloads remain: idle-poll for acks/failures.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return true;
    }
    collector->Emit(make_tuple_ ? make_tuple_(seq) : Tuple::Of(seq));
    const uint64_t root = collector->LastRootId();
    if (root != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_[root] = seq;
    }
    return true;
  }

  void OnAck(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_.erase(root_id) > 0) acked_++;
  }

  void OnFail(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(root_id);
    if (it == inflight_.end()) return;
    pending_.push_back(it->second);
    inflight_.erase(it);
  }

  /// Frame = cursor + every payload still owed (pending ∪ in-flight),
  /// sorted for canonical bytes. Payloads acked before this instant are
  /// excluded — they are inside the downstream frames of this epoch.
  /// Runs on the spout thread while OnAck/OnFail run on the acker thread;
  /// mu_ makes the cut atomic.
  std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) override {
    (void)epoch;
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int64_t> owed(pending_.begin(), pending_.end());
    for (const auto& [root, seq] : inflight_) owed.push_back(seq);
    std::sort(owed.begin(), owed.end());
    ByteWriter w;
    w.PutVarint(static_cast<uint64_t>(cursor_));
    w.PutVarint(owed.size());
    for (int64_t seq : owed) w.PutI64(seq);
    return std::move(w).TakeBytes();
  }

  Status RestoreEpoch(uint64_t epoch,
                      const std::vector<uint8_t>& state) override {
    (void)epoch;
    std::lock_guard<std::mutex> lock(mu_);
    ByteReader r(state);
    uint64_t cursor = 0;
    uint64_t owed = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&cursor));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&owed));
    std::deque<int64_t> pending;
    for (uint64_t i = 0; i < owed; i++) {
      int64_t seq = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetI64(&seq));
      pending.push_back(seq);
    }
    pending_ = std::move(pending);
    inflight_.clear();
    cursor_ = static_cast<int64_t>(cursor);
    return Status::OK();
  }

  uint64_t acked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_;
  }
  size_t owed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size() + inflight_.size();
  }

 private:
  const int64_t limit_;
  TupleFn make_tuple_;
  const int64_t halt_at_;
  mutable std::mutex mu_;
  int64_t cursor_ = 0;
  std::deque<int64_t> pending_;                   // Failed: re-emit next.
  std::unordered_map<uint64_t, int64_t> inflight_;  // root id -> payload.
  uint64_t acked_ = 0;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_STREAM_OPERATORS_H_
