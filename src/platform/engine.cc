#include "platform/engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/random.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/epoch.h"
#include "platform/recorder.h"
#include "platform/spsc_ring.h"

namespace streamlib::platform {

namespace {

/// A timeout knob in seconds: positive and below 1.8e10 s, so the
/// nanosecond count the engine casts it to fits a uint64_t (2^64 ns is
/// about 1.84e10 s). NaN and infinity fail the comparisons.
bool ValidTimeoutSeconds(double seconds) {
  return seconds > 0 && seconds < 1.8e10;
}

/// Per-task trace event buffer size. Bounds tracing memory regardless of
/// run length; overflow overwrites oldest events (counted, and affected
/// trees are marked incomplete rather than silently miswired).
constexpr size_t kTraceRingCapacity = 4096;

/// Transport batching: emissions accumulate in per-target staging buffers
/// and flush as one batch push when a buffer reaches this size (or when the
/// producing Execute/NextTuple batch ends); a spout also flushes after this
/// many NextTuple calls.
constexpr size_t kEmitBatchSize = 32;

}  // namespace

Status EngineConfig::Validate() const {
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (execute_batch_size == 0) {
    return Status::InvalidArgument(
        "execute_batch_size must be >= 1 (1 forces per-tuple Execute)");
  }
  if (mode == ExecutionMode::kMultiplexed && multiplexed_threads == 0) {
    return Status::InvalidArgument(
        "multiplexed mode needs at least one executor thread");
  }
  // Checked regardless of semantics: the knob must always be sane before
  // it reaches the acker's timeout arithmetic.
  if (!ValidTimeoutSeconds(ack_timeout_seconds)) {
    return Status::InvalidArgument(
        "ack_timeout_seconds must be positive and below 1.8e10");
  }
  if (TracksTuples(semantics) && max_spout_pending == 0) {
    return Status::InvalidArgument(
        "tracked delivery needs max_spout_pending >= 1");
  }
  if (semantics == DeliverySemantics::kExactlyOnce &&
      (checkpoint_store == nullptr || epoch_interval_tuples == 0)) {
    return Status::InvalidArgument(
        "exactly-once needs a checkpoint_store and epoch_interval_tuples "
        ">= 1");
  }
  if ((epoch_interval_tuples > 0 || resume_from_epoch > 0) &&
      checkpoint_store == nullptr) {
    return Status::InvalidArgument(
        "epoch checkpointing needs a checkpoint_store");
  }
  if (!ValidTimeoutSeconds(epoch_align_timeout_seconds)) {
    return Status::InvalidArgument(
        "epoch_align_timeout_seconds must be positive and below 1.8e10");
  }
  // Recording captures spout emissions only: neither barrier alignment
  // timing nor restored spout state is in the file, so a replay could not
  // reproduce the run. Reject the combination up front.
  if (recorder != nullptr &&
      (epoch_interval_tuples > 0 || resume_from_epoch > 0)) {
    return Status::InvalidArgument(
        "flight recording and epoch checkpointing are mutually exclusive");
  }
  // Telemetry knobs: 0 = disabled, not an error. Guard against intervals
  // so short the sampler becomes a busy loop perturbing the data path.
  if (telemetry_sample_interval_ms > 60'000) {
    return Status::InvalidArgument(
        "telemetry_sample_interval_ms must be <= 60000 (0 disables)");
  }
  STREAMLIB_RETURN_NOT_OK(faults.Validate());
  return Status::OK();
}

/// A unit of data in flight between tasks.
struct Message {
  Tuple tuple;
  uint64_t root_id = 0;          // Ack-tree root; 0 = untracked.
  uint64_t edge_id = 0;          // This delivery's ledger entry.
  uint64_t emit_time_nanos = 0;  // Spout emission time (end-to-end latency).
  // Producing task's global index. Barrier alignment needs it: an MPMC
  // input queue merges producers, but the aligner must know *whose*
  // barrier (and whose post-barrier data) each message is.
  uint32_t producer_task = 0;
  // Sampled tracing (all 0 on untraced tuples — the common case).
  uint64_t trace_id = 0;            // Root span id of the sampled tree.
  uint64_t trace_parent_span = 0;   // Span of the hop that emitted this.
  uint64_t trace_enqueue_nanos = 0; // Stage time (queue-wait measurement).
};

/// Event sent to the acker thread.
struct TopologyEngine::AckerEvent {
  enum Kind { kInit, kUpdate };
  Kind kind = kUpdate;
  uint64_t root_id = 0;
  uint64_t xor_value = 0;
  size_t spout_task = 0;  // kInit only.
};

/// One parallel instance of a component.
///
/// Bolt tasks own exactly one input channel: a lock-free SPSC ring when all
/// of the task's producer tasks run on one thread in dedicated mode (the
/// common spout→bolt pipeline edge), otherwise the mutex-based MPMC
/// BlockingQueue.
/// The In* helpers dispatch to whichever is present.
struct TopologyEngine::Task {
  size_t global_index = 0;
  size_t component_index = 0;
  uint32_t task_index = 0;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  std::unique_ptr<BlockingQueue<Message>> queue;  // Bolts, multi-producer.
  std::unique_ptr<SpscRing<Message>> ring;        // Bolts, single-producer.
  std::unique_ptr<TaskCollector> collector;
  TaskMetrics* metrics = nullptr;
  std::unique_ptr<TraceRing> trace_ring;  // Null when tracing is disabled.
  // Fault-injection decision streams, null when injection is disabled.
  // All are consulted only by the thread currently running this task
  // (which the engine serializes), so each stream is deterministic.
  std::unique_ptr<FaultSite> transport_faults;  // Stage: drop/dup/delay.
  std::unique_ptr<FaultSite> executor_faults;   // Execute/crash/acker loss.
  std::unique_ptr<FaultSite> stall_faults;      // Input-queue drain stalls.
  std::unique_ptr<FaultSite> barrier_faults;    // Barrier drop/delay.

  // Epoch-barrier state (null/empty unless epoch_interval_tuples > 0; all
  // touched only by the thread currently running this task).
  std::unique_ptr<EpochAligner> aligner;  // Bolts only.
  std::vector<Message> held;        // Post-barrier input awaiting alignment.
  std::vector<uint64_t> held_tags;  // held[i] belongs to epoch held_tags[i].
  uint64_t last_snapshot_epoch = 0;  // Frame a crash-restart restores from.

  // ExecuteHop's batched-call scratch (reused across runs).
  std::vector<const Tuple*> batch_inputs;
  std::vector<ExecutorFate> batch_fates;  // Only with executor faults armed.

  // Fused wiring (DESIGN.md §13). A fused follower — a bolt task whose
  // input edge is fused — has no input channel and no thread of its own:
  // its producer task runs it inline, so it lives on `fused_head`'s thread
  // (the nearest ancestor that has one) and all its state keeps the
  // one-consulting-thread invariant. A head lists its inline descendants,
  // producers before consumers, for Prepare, Restore and FlushAll.
  Task* fused_head = nullptr;  // Non-null on a fused follower only.
  std::vector<Task*> fused_stages;

  size_t InPushAll(std::span<Message> b) {
    return ring ? ring->PushAll(b) : queue->PushAll(b);
  }
  size_t InTryPushAll(std::span<Message> b) {
    return ring ? ring->TryPushAll(b) : queue->TryPushAll(b);
  }
  size_t InForcePushAll(std::span<Message> b) {
    // Rings are never selected in multiplexed mode, the only ForcePush
    // caller; fall back to a blocking push if that ever changes.
    return ring ? ring->PushAll(b) : queue->ForcePushAll(b);
  }
  size_t InPopBatch(std::vector<Message>& out, size_t max) {
    return ring ? ring->PopBatch(out, max) : queue->PopBatch(out, max);
  }
  size_t InTryPopBatch(std::vector<Message>& out, size_t max) {
    return ring ? ring->TryPopBatch(out, max) : queue->TryPopBatch(out, max);
  }
  size_t InPopBatchTimed(std::vector<Message>& out, size_t max,
                         std::chrono::nanoseconds timeout) {
    return ring ? ring->PopBatchWithTimeout(out, max, timeout)
                : queue->PopBatchWithTimeout(out, max, timeout);
  }
  void InClose() {
    if (ring) {
      ring->Close();
    } else {
      queue->Close();
    }
  }
  size_t InSize() const { return ring ? ring->Size() : queue->Size(); }
  size_t InApproxSize() const {
    return ring ? ring->ApproxSize() : queue->ApproxSize();
  }
  bool InClosed() const { return ring ? ring->Closed() : queue->Closed(); }
};

/// A subscription edge resolved to concrete target tasks.
struct TopologyEngine::Edge {
  Grouping grouping;
  std::vector<Task*> targets;
  // A fused shuffle between equal parallelisms above 1: producer task i
  // feeds consumer task i, its only producer.
  bool paired = false;
};

void TopologyEngine::Route(const Edge& edge, uint32_t producer,
                           const Tuple& tuple, Rng& rng,
                           std::vector<Task*>& out) {
  switch (edge.grouping.kind) {
    case GroupingKind::kBroadcast:
      out.insert(out.end(), edge.targets.begin(), edge.targets.end());
      break;
    case GroupingKind::kShuffle:
      out.push_back(edge.paired
                        ? edge.targets[producer]
                        : edge.targets[rng.NextBounded(edge.targets.size())]);
      break;
    case GroupingKind::kFields: {
      const uint64_t h = HashOfValue(tuple.field(edge.grouping.field_index),
                                     kFieldsGroupingHashSeed);
      out.push_back(edge.targets[h % edge.targets.size()]);
      break;
    }
    case GroupingKind::kGlobal:
      out.push_back(edge.targets[0]);
      break;
  }
}

/// The XOR ack ledger: one entry per open root, holding the XOR of the
/// edge ids still outstanding in its tree. A root completes when its entry
/// clears after the spout's kInit arrived. Both schedules drive it: the
/// acker thread adds the wall-clock timeout scan, the drive mode fails
/// whatever is still open once its tree has drained.
class TopologyEngine::AckLedger {
 public:
  explicit AckLedger(TopologyEngine* engine) : engine_(engine) {}

  /// Folds `events` in; returns the roots they completed.
  size_t Apply(std::span<const AckerEvent> events) {
    size_t resolved = 0;
    for (const AckerEvent& event : events) {
      // A tree that closed before its kInit left the spout (every hop
      // fused, none failed) arrives as value 0 with nothing open: it
      // resolves without touching the table or reading the clock.
      if (event.kind == AckerEvent::kInit && event.xor_value == 0 &&
          !roots_.contains(event.root_id)) {
        Resolve(event.root_id, event.spout_task, /*success=*/true);
        resolved++;
        continue;
      }
      RootEntry& entry = roots_[event.root_id];
      entry.value ^= event.xor_value;
      if (event.kind == AckerEvent::kInit) {
        entry.initialized = true;
        entry.spout_task = event.spout_task;
        entry.created_nanos = engine_->NowNanos();
      }
      if (entry.initialized && entry.value == 0) {
        Resolve(event.root_id, entry.spout_task, /*success=*/true);
        roots_.erase(event.root_id);
        resolved++;
      }
    }
    return resolved;
  }

  /// Fails every open root older than `timeout_nanos` at `now`.
  size_t FailExpired(uint64_t now, uint64_t timeout_nanos) {
    return FailWhere([&](const RootEntry& entry) {
      return now - entry.created_nanos > timeout_nanos;
    });
  }

  /// Fails every open root.
  size_t FailAll() {
    return FailWhere([](const RootEntry&) { return true; });
  }

 private:
  struct RootEntry {
    uint64_t value = 0;
    size_t spout_task = 0;
    bool initialized = false;
    uint64_t created_nanos = 0;
  };

  template <typename Pred>
  size_t FailWhere(Pred expired) {
    size_t failed = 0;
    for (auto it = roots_.begin(); it != roots_.end();) {
      if (it->second.initialized && expired(it->second)) {
        Resolve(it->first, it->second.spout_task, /*success=*/false);
        it = roots_.erase(it);
        failed++;
      } else {
        ++it;
      }
    }
    return failed;
  }

  /// The drive mode never opened its spouts, so there a resolved root
  /// lands only on the spout task's metrics and the root counters.
  void Resolve(uint64_t root, size_t spout_index, bool success) {
    Task* spout_task = engine_->tasks_[spout_index].get();
    if (success) {
      engine_->completed_roots_.fetch_add(1, std::memory_order_relaxed);
      spout_task->metrics->IncAcked();
      if (!engine_->stepped_) spout_task->spout->OnAck(root);
    } else {
      engine_->failed_roots_.fetch_add(1, std::memory_order_relaxed);
      spout_task->metrics->IncFailed();
      if (!engine_->stepped_) spout_task->spout->OnFail(root);
    }
    engine_->inflight_roots_.fetch_sub(1, std::memory_order_relaxed);
  }

  TopologyEngine* engine_;
  std::unordered_map<uint64_t, RootEntry> roots_;
};

/// Engine-side OutputCollector for one task: routes, anchors, applies
/// backpressure, and accumulates the XOR of created edge ids.
///
/// Emissions do not hit downstream queues directly: they accumulate in
/// per-target staging buffers and flush as one batch push when a buffer
/// reaches kEmitBatchSize or the surrounding Execute/NextTuple batch ends
/// (FlushAll). This amortizes the lock/notify per queue operation over the
/// batch while preserving per-target FIFO order. Acker traffic (kInit from
/// spouts, kUpdate from bolts) is staged and flushed the same way — one
/// vector push per execute batch.
class TopologyEngine::TaskCollector : public OutputCollector {
 public:
  TaskCollector(TopologyEngine* engine, Task* task, uint64_t seed)
      : engine_(engine), task_(task), rng_(seed) {}

  /// Called once after subscription edges are resolved: lists the distinct
  /// downstream tasks this task can route to, in routing order, and builds
  /// a staging slot for each queued one.
  void InitStaging() {
    slot_of_task_.assign(engine_->tasks_.size(), -1);
    for (const Edge& edge : engine_->outgoing_[task_->component_index]) {
      // A paired edge feeds this task's own consumer task only; the
      // others belong to the other producer tasks' threads.
      if (edge.paired) {
        targets_.push_back(edge.targets[task_->task_index]);
        continue;
      }
      for (Task* target : edge.targets) {
        // Fused followers run inline and bypass staging entirely; each has
        // one producer task, so it is listed once.
        if (target->fused_head != nullptr) {
          targets_.push_back(target);
        } else if (slot_of_task_[target->global_index] < 0) {
          slot_of_task_[target->global_index] =
              static_cast<int32_t>(slots_.size());
          slots_.emplace_back();
          slots_.back().target = target;
          slots_.back().buffer.reserve(kEmitBatchSize);
          targets_.push_back(target);
        }
      }
    }
  }

  /// Bolt path: set the anchoring context before Execute. `trace_id` and
  /// `span` propagate the sampled trace (0 on untraced tuples): children
  /// emitted during this Execute become spans parented under `span`.
  void BeginExecute(uint64_t root_id, uint64_t emit_time_nanos,
                    uint64_t trace_id, uint64_t span) {
    current_root_ = root_id;
    current_emit_time_ = emit_time_nanos;
    current_trace_ = trace_id;
    current_span_ = span;
    xor_out_ = 0;
  }
  uint64_t EndExecute() { return xor_out_; }

  uint64_t LastRootId() const override { return last_spout_root_; }

  /// Monotonic count of Emit calls (spout loop uses it to detect idle
  /// polls and flush promptly instead of batching across waits).
  uint64_t total_emitted() const { return total_emitted_; }

  void Emit(Tuple tuple) override {
    const bool from_spout = task_->spout != nullptr;
    uint64_t root = current_root_;
    uint64_t emit_time = current_emit_time_;
    if (from_spout) {
      // Flight recorder tap: capture the emission before routing consumes
      // (moves) the tuple. Everything downstream is deterministic given
      // the config, so spout output is all the recording needs.
      if (engine_->config_.recorder != nullptr) {
        engine_->config_.recorder->RecordEmission(
            static_cast<uint32_t>(task_->global_index), tuple);
      }
      // Source-side latency sampling: stamp every Nth emission instead of
      // reading the clock per tuple; executors sample exactly the stamped
      // tuples (and their descendants, which inherit the stamp).
      const uint32_t every = engine_->config_.latency_sample_every;
      emit_time =
          every > 0 && total_emitted_ % every == 0 ? engine_->NowNanos() : 0;
      // Trace sampling rides the same counter: every Kth root becomes a
      // span tree, rooted at a span recorded right here.
      const uint32_t trace_every = engine_->config_.trace_sample_every;
      if (trace_every > 0 && total_emitted_ % trace_every == 0) {
        current_trace_ =
            engine_->next_span_id_.fetch_add(1, std::memory_order_relaxed);
        current_span_ = current_trace_;
        task_->trace_ring->Record(TraceEvent{
            current_trace_, current_trace_, /*parent_span=*/0,
            static_cast<uint32_t>(task_->global_index), engine_->NowNanos(),
            /*wait_nanos=*/0, /*execute_nanos=*/0});
      } else {
        current_trace_ = 0;
        current_span_ = 0;
      }
      if (TracksTuples(engine_->config_.semantics)) {
        root = engine_->next_root_id_.fetch_add(1, std::memory_order_relaxed);
        engine_->inflight_roots_.fetch_add(1, std::memory_order_relaxed);
        last_spout_root_ = root;
        xor_out_ = 0;
      }
    }

    // Resolve this tuple's target task set across all outgoing edges.
    targets_scratch_.clear();
    for (const Edge& edge : engine_->outgoing_[task_->component_index]) {
      Route(edge, task_->task_index, tuple, rng_, targets_scratch_);
    }

    // Each delivery's ledger contribution: the edge ids a staged delivery
    // created, or what an inline one left open (ExecuteInline).
    uint64_t edge_xor = 0;
    for (size_t i = 0; i < targets_scratch_.size(); i++) {
      const bool last = i + 1 == targets_scratch_.size();
      edge_xor ^= Deliver(targets_scratch_[i],
                          last ? std::move(tuple) : Tuple(tuple), root,
                          emit_time);
    }
    total_emitted_++;
    unflushed_emits_++;

    if (TracksTuples(engine_->config_.semantics)) {
      if (from_spout) {
        // Register the root with its initial ledger value.
        StageAck(AckerEvent{AckerEvent::kInit, root, edge_xor,
                            task_->global_index});
      } else if (root != 0) {
        xor_out_ ^= edge_xor;
      }
    }
  }

  /// Sends the epoch-barrier marker to every distinct downstream task in
  /// routing order, with one barrier-fault decision (delay, then drop) per
  /// target, queued or fused alike. A queued target gets the marker staged
  /// and flushed at once: per-slot FIFO puts it after every already-staged
  /// tuple of its epoch, and prompt flushing keeps downstream alignment
  /// latency off the data's critical path. A fused follower has exactly one
  /// producer task, so the marker's arrival is its whole alignment: it
  /// takes the epoch cut inline (snapshot, then forward through its own
  /// collector), after every tuple of its epoch already ran inline.
  void EmitBarrier(uint64_t epoch) {
    FaultSite* faults = task_->barrier_faults.get();
    for (Task* target : targets_) {
      if (faults != nullptr) engine_->SleepMicros(faults->BarrierDelayMicros());
      // A marker lost toward one target: `epoch` can no longer complete,
      // and a fan-in target's alignment starves until the timeout
      // force-advances past it. The staged data still flows.
      const bool dropped = faults != nullptr && faults->FireBarrierDrop();
      if (target->fused_head != nullptr) {
        if (!dropped) {
          engine_->SnapshotTask(target, epoch);
          target->collector->EmitBarrier(epoch);
        }
        continue;
      }
      StagingSlot& slot = slots_[slot_of_task_[target->global_index]];
      if (!dropped) {
        Message& message = slot.buffer.emplace_back();
        message.tuple = Tuple::Barrier(epoch);
        message.producer_task = static_cast<uint32_t>(task_->global_index);
      }
      FlushSlot(slot);
    }
  }

  /// The acker-loss fault never reaches here: the executor drops a lost
  /// kUpdate before staging it (ExecutorFate::lose_ack). A kInit is never
  /// lost — an uninitialized ledger entry is skipped by the timeout scan,
  /// so its root could never fail and the drain would hang.
  void StageAck(const AckerEvent& event) { acker_staging_.push_back(event); }

  /// Flushes every staging buffer, the emitted-counter delta, and staged
  /// acker events. Must run before the owning thread blocks on anything a
  /// staged tuple could be needed to unblock (execute-batch end, spout
  /// throttle wait, shutdown).
  void FlushAll() {
    // A head flushes its fused followers first: they stage toward queued
    // edges past the fused ones, under the same flush-before-blocking
    // contract.
    for (Task* follower : task_->fused_stages) follower->collector->FlushAll();
    for (StagingSlot& slot : slots_) FlushSlot(slot);
    if (unflushed_emits_ > 0) {
      task_->metrics->IncEmitted(unflushed_emits_);
      unflushed_emits_ = 0;
    }
    if (!acker_staging_.empty()) {
      engine_->acker_queue_->PushAll(std::span<AckerEvent>(acker_staging_));
      acker_staging_.clear();
    }
  }

 private:
  struct StagingSlot {
    Task* target = nullptr;
    std::vector<Message> buffer;
  };

  /// Delivers one copy to `target` and returns its ledger contribution (0
  /// untracked). Transport faults (delay, drop, duplicate) inject here,
  /// one draw per delivery, queued or fused alike — the staging buffer and
  /// the inline call are this engine's wire. A fused follower then runs
  /// inline (ExecuteInline); any other target gets the message staged.
  uint64_t Deliver(Task* target, Tuple&& tuple, uint64_t root,
                   uint64_t emit_time) {
    const TransportFate fate = DrawTransportFate(task_->transport_faults.get());
    engine_->SleepMicros(fate.delay_micros);
    if (fate.drop) {
      // Transport loss: allocate and anchor an edge id but never deliver
      // — like a packet dropped after send. The ledger now holds a bit no
      // execution will clear, so under at-least-once the root times out
      // and the spout's OnFail replays it; at-most-once simply loses the
      // tuple. Dropped deliveries never touch pending_messages_ (counted
      // at flush), so the drain protocol is unaffected.
      return root != 0 ? engine_->NextEdgeId() : 0;
    }
    if (target->fused_head != nullptr) {
      Message message;
      message.tuple = std::move(tuple);
      message.root_id = root;
      message.emit_time_nanos = emit_time;
      message.trace_id = current_trace_;
      message.trace_parent_span = current_span_;
      return engine_->ExecuteInline(target, message, fate.duplicate);
    }
    return Stage(target, std::move(tuple), root, emit_time, fate.duplicate);
  }

  /// Stages one copy for `target`; returns the XOR of the edge ids created
  /// for it (normally one, two for a duplicated delivery). Flushes the
  /// slot when it reaches the batch size.
  uint64_t Stage(Task* target, Tuple&& tuple, uint64_t root,
                 uint64_t emit_time, bool duplicate) {
    const uint64_t edge_id = root != 0 ? engine_->NextEdgeId() : 0;
    StagingSlot& slot = slots_[slot_of_task_[target->global_index]];
    Message& message = slot.buffer.emplace_back();
    message.tuple = std::move(tuple);
    message.root_id = root;
    message.edge_id = edge_id;
    message.emit_time_nanos = emit_time;
    message.producer_task = static_cast<uint32_t>(task_->global_index);
    if (current_trace_ != 0) {
      // Traced path only: one extra clock read to timestamp the enqueue
      // (queue-wait = dequeue - enqueue at the consumer).
      message.trace_id = current_trace_;
      message.trace_parent_span = current_span_;
      message.trace_enqueue_nanos = engine_->NowNanos();
    }
    uint64_t edge_xor = edge_id;
    if (duplicate) {
      // Redelivery: a second copy with its own ledger entry, so the XOR
      // accounting stays balanced while downstream genuinely sees the
      // tuple twice — the duplication at-least-once permits and the
      // MillWheel-style DedupLedger exists to suppress.
      const uint64_t dup_edge = root != 0 ? engine_->NextEdgeId() : 0;
      Message dup = slot.buffer.back();  // Copy before any reallocation.
      dup.edge_id = dup_edge;
      slot.buffer.push_back(std::move(dup));
      edge_xor ^= dup_edge;
    }
    if (slot.buffer.size() >= kEmitBatchSize) FlushSlot(slot);
    return edge_xor;
  }

  /// Pushes one slot's staged messages downstream as a batch. Fast path is
  /// a single non-blocking batch push; on a full queue the producer either
  /// blocks (bounded backpressure: spouts and dedicated-mode bolts) or
  /// falls back to unbounded buffering (multiplexed bolts, which must
  /// never block on a queue they may themselves drain — faithfully
  /// pre-backpressure Storm). The failed prefix stays in place: nothing is
  /// re-copied on the stall path. The drive mode's one thread is also the
  /// consumer, so it always force-pushes and records the arrival order.
  void FlushSlot(StagingSlot& slot) {
    if (slot.buffer.empty()) return;
    Task* target = slot.target;
    const size_t n = slot.buffer.size();
    // Count before pushing so a consumer finishing these messages can
    // never drive pending_messages_ negative.
    engine_->pending_messages_.fetch_add(n, std::memory_order_acq_rel);
    std::span<Message> batch(slot.buffer);
    size_t delivered;
    if (engine_->stepped_) {
      delivered = target->queue->ForcePushAll(batch);
      engine_->step_order_.insert(engine_->step_order_.end(), delivered,
                                  target->global_index);
    } else {
      delivered = target->InTryPushAll(batch);
      if (delivered < n) {
        task_->metrics->IncBackpressureStalls();
        std::span<Message> rest = batch.subspan(delivered);
        if (engine_->config_.mode == ExecutionMode::kMultiplexed &&
            task_->bolt != nullptr) {
          delivered += target->InForcePushAll(rest);
        } else {
          delivered += target->InPushAll(rest);
        }
      }
    }
    if (delivered < n) {
      // Queue closed during shutdown; remainder dropped.
      engine_->pending_messages_.fetch_sub(n - delivered,
                                           std::memory_order_acq_rel);
    }
    task_->metrics->RecordFlush(n);
    slot.buffer.clear();
  }

  TopologyEngine* engine_;
  Task* task_;
  Rng rng_;
  std::vector<StagingSlot> slots_;
  std::vector<int32_t> slot_of_task_;  // global task index -> slot or -1.
  std::vector<Task*> targets_;         // Distinct, in routing order.
  std::vector<Task*> targets_scratch_;
  std::vector<AckerEvent> acker_staging_;
  uint64_t total_emitted_ = 0;
  uint64_t unflushed_emits_ = 0;
  uint64_t current_root_ = 0;
  uint64_t current_emit_time_ = 0;
  uint64_t current_trace_ = 0;
  uint64_t current_span_ = 0;
  uint64_t xor_out_ = 0;
  uint64_t last_spout_root_ = 0;
};

TopologyEngine::TopologyEngine(Topology topology, EngineConfig config)
    : topology_(std::move(topology)),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : Clock::Steady()) {}

TopologyEngine::~TopologyEngine() = default;

uint64_t TopologyEngine::NowNanos() const { return clock_->NowNanos(); }

void TopologyEngine::SleepMicros(uint32_t micros) const {
  if (micros > 0) clock_->SleepMicros(micros);
}

/// Ledger edge ids pass through a 64-bit bijective mix: sequential ids XOR
/// to zero on small sets (1 ^ 2 ^ 3 == 0 would ack a three-way broadcast
/// whose deliveries were all dropped), distinct mixed ids only with
/// probability about 2^-64.
uint64_t TopologyEngine::NextEdgeId() {
  return Mix64(next_edge_id_.fetch_add(1, std::memory_order_relaxed));
}

void TopologyEngine::BuildTasks() {
  const auto& components = topology_.components();
  std::vector<std::vector<Task*>> tasks_by_component(components.size());

  if (config_.faults.Enabled()) {
    fault_plan_ = std::make_unique<FaultPlan>(config_.faults);
  }

  for (size_t ci = 0; ci < components.size(); ci++) {
    const ComponentSpec& spec = components[ci];
    for (uint32_t ti = 0; ti < spec.parallelism; ti++) {
      auto task = std::make_unique<Task>();
      task->global_index = tasks_.size();
      task->component_index = ci;
      task->task_index = ti;
      // Pre-register this task's metrics: the registry freezes before any
      // worker thread starts, so the run phase never mutates it.
      task->metrics = &metrics_.RegisterTask(spec.name, ti);
      if (config_.trace_sample_every > 0) {
        task->trace_ring = std::make_unique<TraceRing>(kTraceRingCapacity);
      }
      if (spec.is_spout) {
        task->spout = spec.spout_factory();
      } else {
        task->bolt = spec.bolt_factory();
      }
      if (fault_plan_ != nullptr) {
        // Site ids derive from the global task index, which is itself a
        // pure function of the topology (component order × parallelism) —
        // so a given (topology, seed) always yields the same per-site
        // streams. One id-space slot per role.
        task->transport_faults =
            fault_plan_->MakeSite(task->global_index * 4 + 0, task->metrics);
        task->executor_faults =
            fault_plan_->MakeSite(task->global_index * 4 + 1, task->metrics);
        if (config_.epoch_interval_tuples > 0) {
          task->barrier_faults =
              fault_plan_->MakeSite(task->global_index * 4 + 3, task->metrics);
        }
      }
      task->collector = std::make_unique<TaskCollector>(
          this, task.get(),
          config_.seed ^ (0x9e3779b97f4a7c15ULL * (task->global_index + 1)));
      tasks_by_component[ci].push_back(task.get());
      tasks_.push_back(std::move(task));
    }
  }

  // Fused-operator compilation (DESIGN.md §13): lower the topology into
  // the dataflow IR and run the fusion pass.
  plan_ = std::make_unique<TopologyPlan>(TopologyPlan::FromTopology(topology_));
  FusionOptions fusion_options;
  fusion_options.enable_fusion = config_.enable_fusion;
  fusion_options.dedicated_mode = config_.mode == ExecutionMode::kDedicated;
  plan_->RunFusionPass(fusion_options);
  fused_edges_ = plan_->fused_edge_count();

  // Resolve the plan's edges into per-source outgoing lists, counting each
  // consumer's producer tasks (barrier alignment) and distinct producer
  // threads (the SPSC eligibility test) on the way. A fused edge makes each
  // consumer task a follower of the one producer task that feeds it — task
  // 0 of a parallelism-1 producer, task i of a paired shuffle — on that
  // producer's head thread. Edges come in consumer order and components
  // are topologically sorted, so a producer's head is final before any of
  // its out-edges is read.
  outgoing_.assign(components.size(), {});
  std::vector<uint64_t> producer_tasks(components.size(), 0);
  std::vector<std::vector<const Task*>> producer_threads(components.size());
  std::vector<std::vector<bool>> counted(
      components.size(), std::vector<bool>(components.size(), false));
  for (const PlanEdge& plan_edge : plan_->edges()) {
    const size_t source = plan_edge.from;
    const size_t ci = plan_edge.to;
    const bool fused = plan_edge.channel == EdgeChannel::kFused;
    Edge edge;
    edge.grouping = plan_edge.grouping;
    edge.targets = tasks_by_component[ci];
    edge.paired = fused && components[source].parallelism > 1;
    outgoing_[source].push_back(edge);
    if (!counted[ci][source]) {
      counted[ci][source] = true;
      producer_tasks[ci] += components[source].parallelism;
      for (const Task* producer : tasks_by_component[source]) {
        const Task* thread =
            producer->fused_head != nullptr ? producer->fused_head : producer;
        std::vector<const Task*>& threads = producer_threads[ci];
        if (std::find(threads.begin(), threads.end(), thread) ==
            threads.end()) {
          threads.push_back(thread);
        }
      }
    }
    if (!fused) continue;
    for (Task* follower : edge.targets) {
      Task* producer =
          tasks_by_component[source][edge.paired ? follower->task_index : 0];
      Task* head =
          producer->fused_head != nullptr ? producer->fused_head : producer;
      follower->fused_head = head;
      head->fused_stages.push_back(follower);
    }
  }

  // Input channels: a bolt task whose producer tasks all run on one thread
  // (one task, or a fan-in whose producers are fused onto one head) gets
  // the lock-free SPSC ring (dedicated mode only — both endpoints are
  // single threads there); everything else, and every queue of the
  // single-threaded drive mode, gets the MPMC blocking queue.
  for (auto& task : tasks_) {
    if (task->bolt == nullptr) continue;
    // Fused followers have no input channel at all: their tuples and
    // barriers arrive as inline calls on the head's thread. (No queue also
    // means no queue-stall site — the fused analogue of a stall is simply
    // the head thread running the follower — and no aligner: one producer
    // task's barrier is the whole alignment.)
    if (task->fused_head != nullptr) continue;
    const bool spsc = !stepped_ && config_.mode == ExecutionMode::kDedicated &&
                      producer_threads[task->component_index].size() == 1;
    if (spsc) {
      task->ring = std::make_unique<SpscRing<Message>>(config_.queue_capacity);
      spsc_edges_++;
    } else {
      task->queue =
          std::make_unique<BlockingQueue<Message>>(config_.queue_capacity);
    }
    if (config_.epoch_interval_tuples > 0) {
      // Alignment spans *producer tasks*, not components: every producer
      // task's collector broadcasts each barrier to every consumer task.
      task->aligner = std::make_unique<EpochAligner>(
          producer_tasks[task->component_index],
          static_cast<uint64_t>(config_.epoch_align_timeout_seconds * 1e9),
          config_.resume_from_epoch);
    }
    if (fault_plan_ != nullptr && config_.faults.queue_stall_prob > 0) {
      // Queue-stall injection: the interceptor fires on the consumer
      // thread after each successful drain with the drained count, and
      // draws one stall decision per message (not per pop) — batch
      // boundaries depend on thread timing, per-message consultation does
      // not, which keeps the site's decision stream replayable.
      task->stall_faults =
          fault_plan_->MakeSite(task->global_index * 4 + 2, task->metrics);
      Task* t = task.get();
      auto stall = [this, t](size_t drained) {
        for (size_t i = 0; i < drained; i++) {
          SleepMicros(t->stall_faults->QueueStallMicros());
        }
      };
      if (task->ring) {
        task->ring->SetPopInterceptor(std::move(stall));
      } else {
        task->queue->SetPopInterceptor(std::move(stall));
      }
    }
  }

  for (auto& task : tasks_) task->collector->InitStaging();
  if (TracksTuples(config_.semantics)) {
    acker_queue_ = std::make_unique<BlockingQueue<AckerEvent>>(1 << 16);
    ack_ledger_ = std::make_unique<AckLedger>(this);
  }
  metrics_.Freeze();
  telemetry_.Bind(&metrics_, config_.telemetry_sample_interval_ms,
                  config_.trace_sample_every);
  telemetry_.BindFaultPlan(fault_plan_.get());
  telemetry_.BindRecorder(config_.recorder);
}

/// Builds the sampler's per-task probes (counters + instantaneous input
/// depth for bolts) and starts the background sampling thread.
void TopologyEngine::StartSampler() {
  if (config_.telemetry_sample_interval_ms == 0) return;
  std::vector<MetricsSampler::Probe> probes;
  probes.reserve(tasks_.size());
  for (auto& task : tasks_) {
    MetricsSampler::Probe probe;
    probe.metrics = task->metrics;
    if (task->bolt != nullptr && task->fused_head == nullptr) {
      Task* t = task.get();
      probe.queue_depth = [t] { return t->InApproxSize(); };
    }
    probes.push_back(std::move(probe));
  }
  sampler_ = std::make_unique<MetricsSampler>(
      std::move(probes), config_.telemetry_sample_interval_ms);
  telemetry_.AttachSampler(sampler_.get());
  sampler_->Start();
}

/// Merges every task's trace ring into the telemetry span-tree store.
/// Runs after all worker threads joined — rings are single-writer and the
/// writers have stopped.
void TopologyEngine::DrainTraces() {
  if (config_.trace_sample_every == 0) return;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
  std::vector<std::string> task_components;
  task_components.reserve(tasks_.size());
  for (auto& task : tasks_) {
    task_components.push_back(task->metrics->component());
    std::vector<TraceEvent> drained = task->trace_ring->Drain();
    events.insert(events.end(), drained.begin(), drained.end());
    dropped += task->trace_ring->dropped();
  }
  telemetry_.mutable_traces().Build(std::move(events), task_components,
                                    dropped);
}

/// A head prepares its fused followers on its own thread: they have none,
/// and their bolts will run inline right here.
void TopologyEngine::PrepareFollowers(Task* head) {
  for (Task* follower : head->fused_stages) {
    follower->bolt->Prepare(
        follower->task_index,
        topology_.components()[follower->component_index].parallelism);
    RestoreFromEpoch(follower, config_.resume_from_epoch);
  }
}

void TopologyEngine::SpoutLoop(Task* task) {
  task->spout->Open(task->task_index,
                    topology_.components()[task->component_index].parallelism);
  RestoreFromEpoch(task, config_.resume_from_epoch);
  PrepareFollowers(task);
  TaskCollector* collector = task->collector.get();
  const bool track = TracksTuples(config_.semantics);
  // Barrier injection cadence: epoch e's marker follows this spout's
  // e*K-th emission, so epoch boundaries are a pure function of the
  // emission sequence (the determinism the torture test pins down).
  const uint64_t epoch_k = config_.epoch_interval_tuples;
  uint64_t next_epoch = config_.resume_from_epoch + 1;
  uint64_t next_barrier_at = epoch_k;
  auto throttled = [this] {
    return inflight_roots_.load(std::memory_order_relaxed) >=
           config_.max_spout_pending;
  };
  bool done = false;
  while (!done) {
    if (track && throttled()) {
      // Spout throttle: cap in-flight tuple trees. Everything staged must
      // flush first — a root can only resolve (and release the throttle)
      // once its tuples are actually delivered.
      collector->FlushAll();
      std::unique_lock<std::mutex> lock(progress_mu_);
      progress_cv_.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return !throttled(); });
      continue;
    }
    for (size_t i = 0; i < kEmitBatchSize && !done; i++) {
      const uint64_t before = collector->total_emitted();
      if (!task->spout->NextTuple(collector)) {
        done = true;
      } else if (collector->total_emitted() == before) {
        break;  // Idle poll: flush promptly instead of batching waits.
      }
      while (epoch_k > 0 && collector->total_emitted() >= next_barrier_at) {
        // Spout-side cut, *before* the marker enters the stream: the frame
        // holds every payload this spout still owes (unemitted cursor +
        // unacked in-flight), and the ledgers absorb the overlap (§12).
        SnapshotTask(task, next_epoch);
        collector->EmitBarrier(next_epoch);
        next_epoch++;
        next_barrier_at += epoch_k;
      }
      if (track && throttled()) break;
    }
    collector->FlushAll();
  }
}

/// A hop's channel: the bolt emits into its task's own TaskCollector, and
/// the channel decides how each input's ledger entry closes once it ran
/// (the epilogue).
///  - Queued: the epilogue stages the input's kUpdate ack.
///  - Fused: the input arrived by an inline call, which allocated no edge
///    id — the call both delivers and acks, a net ledger zero — so the
///    epilogue folds the hop's emitted edge ids into the delivery's
///    contribution (`fused_xor`) and XORs a fresh poison edge id for any
///    input whose ack a queued hop would not have sent (throw, crash, lost
///    ack). Under tracking the root then fails by ack timeout exactly like
///    its queued counterpart.
class TopologyEngine::HopChannel {
 public:
  HopChannel(TopologyEngine* engine, Task* task, uint64_t* fused_xor = nullptr)
      : engine_(engine),
        collector_(task->collector.get()),
        fused_xor_(fused_xor) {}

  /// Anchoring context for one Execute (all 0 for a batched call); returns
  /// the collector the bolt emits into.
  OutputCollector* Begin(uint64_t root, uint64_t emit_time,
                         uint64_t trace_id, uint64_t span) {
    collector_->BeginExecute(root, emit_time, trace_id, span);
    return collector_;
  }
  /// XOR of the edge ids the Execute's emissions created.
  uint64_t End() { return collector_->EndExecute(); }

  /// Trace queue wait: a fused hop never waits in a queue.
  uint64_t WaitNanos(const Message& message, uint64_t execute_start) const {
    return fused_xor_ == nullptr
               ? execute_start - message.trace_enqueue_nanos
               : 0;
  }

  /// The epilogue. `ran`: Execute completed; `acked`: it ran and its ack
  /// survives (no crash, no lost ack).
  void Close(const Message& message, uint64_t xor_out, bool ran, bool acked) {
    if (fused_xor_ == nullptr) {
      if (acked && message.root_id != 0) {
        collector_->StageAck(AckerEvent{AckerEvent::kUpdate, message.root_id,
                                        message.edge_id ^ xor_out, 0});
      }
      return;
    }
    if (ran) *fused_xor_ ^= xor_out;
    if (!acked && message.root_id != 0) *fused_xor_ ^= engine_->NextEdgeId();
  }

 private:
  TopologyEngine* engine_;
  TaskCollector* collector_;
  uint64_t* fused_xor_;  // Null = queued channel.
};

void TopologyEngine::ExecuteBatch(Task* task, std::span<Message> batch) {
  HopChannel channel(this, task);
  size_t executed = 0;
  size_t consumed = batch.size();  // Messages leaving the pending count.
  if (task->aligner == nullptr) {
    // A crash ends the run: the rest of the popped batch dies with the
    // task — in-memory input of a dead process, never executed, never
    // acked; at-least-once replays it via the ack timeout.
    ExecuteHop(task, batch, channel, &executed);
  } else {
    consumed = ExecuteAligned(task, batch, channel, &executed);
  }
  // Children enqueue (and acker events post) before the parents' pending
  // count releases, so pending_messages_ == 0 always means fully drained.
  task->collector->FlushAll();
  task->metrics->IncExecuted(executed);
  FinishPending(consumed);
}

/// Pending-count release with the drain-wait wakeup the plain paths inline.
void TopologyEngine::FinishPending(size_t n) {
  if (n == 0) return;
  const uint64_t prev =
      pending_messages_.fetch_sub(n, std::memory_order_acq_rel);
  if (prev == n && spouts_done_.load(std::memory_order_acquire)) {
    progress_cv_.notify_all();  // Wake the drain wait in Run().
  }
}

/// The one hop executor: runs `run` — consecutive inputs of `task` — through
/// the bolt and closes each input through `channel`. Per message, in this
/// order: the executor fate draw (DrawExecutorFate: throw → crash →
/// acker-loss), Execute, trace span, latency sample, channel epilogue. An
/// injected throw fails only its own message. A crash leaves its message's
/// effect in place with the ack swallowed, rebuilds the bolt, and ends the
/// run: the remaining inputs die with the task undrawn and unexecuted, and
/// the return value (true) tells the caller to drop whatever else it holds.
///
/// A BatchCapable() bolt takes an untraced run of more than one message
/// through one ExecuteBatch call over every input that drew no throw, up
/// to and including a crashing message — the same draws, blast radius and
/// epilogues as per-tuple delivery, so batched ≡ per-tuple by
/// construction. Only a genuine exception out of ExecuteBatch is
/// run-granular: it fails every input of the call. Traced runs keep
/// per-tuple delivery so their span trees stay per-hop-accurate.
bool TopologyEngine::ExecuteHop(Task* task, std::span<Message> run,
                                HopChannel& channel, size_t* executed) {
  FaultSite* faults = task->executor_faults.get();
  bool batched = run.size() > 1 && task->bolt->BatchCapable();
  for (size_t i = 0; batched && i < run.size(); i++) {
    batched = run[i].trace_id == 0;
  }
  if (!batched) {
    for (Message& message : run) {
      const ExecutorFate fate = DrawExecutorFate(faults, message.root_id != 0);
      // Tracing costs exactly this one branch on untraced tuples; traced
      // hops pay the span allocation and two clock reads.
      uint64_t hop_span = 0;
      uint64_t execute_start = 0;
      if (message.trace_id != 0) {
        hop_span = next_span_id_.fetch_add(1, std::memory_order_relaxed);
        execute_start = NowNanos();
      }
      OutputCollector* out =
          channel.Begin(message.root_id, message.emit_time_nanos,
                        message.trace_id, hop_span);
      bool ok = true;
      try {
        if (fate.fail) throw InjectedBoltError("injected bolt failure");
        task->bolt->Execute(message.tuple, out);
      } catch (...) {
        // A throwing Execute fails the tuple, never the engine: whatever
        // children it emitted before throwing stay anchored, no ack is
        // recorded, and under at-least-once the root times out into the
        // spout's OnFail.
        ok = false;
        task->metrics->IncBoltExceptions();
      }
      const uint64_t xor_out = channel.End();
      if (ok) {
        (*executed)++;
        if (message.trace_id != 0) {
          task->trace_ring->Record(TraceEvent{
              message.trace_id, hop_span, message.trace_parent_span,
              static_cast<uint32_t>(task->global_index), execute_start,
              channel.WaitNanos(message, execute_start),
              NowNanos() - execute_start});
        }
        if (message.emit_time_nanos > 0) {
          task->metrics->RecordLatencyNanos(NowNanos() -
                                            message.emit_time_nanos);
        }
      }
      channel.Close(message, xor_out, ok, ok && !fate.crash && !fate.lose_ack);
      if (fate.crash) {
        RestartBolt(task);
        return true;
      }
    }
    return false;
  }

  // Batched: draw every message's fate first (fault-free runs skip the
  // fate bookkeeping entirely), then one ExecuteBatch call.
  std::vector<const Tuple*>& inputs = task->batch_inputs;
  std::vector<ExecutorFate>& fates = task->batch_fates;
  inputs.clear();
  size_t end = run.size();
  bool crashed = false;
  if (faults == nullptr) {
    for (const Message& message : run) inputs.push_back(&message.tuple);
  } else {
    fates.clear();
    for (size_t i = 0; i < run.size() && !crashed; i++) {
      fates.push_back(DrawExecutorFate(faults, run[i].root_id != 0));
      if (!fates[i].fail) inputs.push_back(&run[i].tuple);
      if (fates[i].crash) {
        end = i + 1;
        crashed = true;
      }
    }
  }
  bool ok = true;
  if (!inputs.empty()) {
    // A fused hop delivers one message at a time, so a batched run is
    // always queued.
    const uint64_t emitted_before = task->collector->total_emitted();
    OutputCollector* out = channel.Begin(0, 0, 0, 0);
    try {
      task->bolt->ExecuteBatch(
          std::span<const Tuple* const>(inputs.data(), inputs.size()), out);
    } catch (...) {
      ok = false;
      task->metrics->IncBoltExceptions();
    }
    channel.End();
    STREAMLIB_CHECK_MSG(task->collector->total_emitted() == emitted_before,
                        "batch-capable bolt emitted during ExecuteBatch");
  }
  const uint64_t now = NowNanos();
  for (size_t i = 0; i < end; i++) {
    const Message& message = run[i];
    const ExecutorFate fate = faults != nullptr ? fates[i] : ExecutorFate{};
    if (fate.fail) task->metrics->IncBoltExceptions();
    const bool ran = ok && !fate.fail;
    if (ran) {
      (*executed)++;
      if (message.emit_time_nanos > 0) {
        task->metrics->RecordLatencyNanos(now - message.emit_time_nanos);
      }
    }
    // Nothing was emitted, so each input's ledger entry closes with its
    // own edge id (xor_out == 0).
    channel.Close(message, 0, ran, ran && !fate.crash && !fate.lose_ack);
  }
  if (crashed) RestartBolt(task);
  return crashed;
}

/// A fused delivery whose transport fate (drawn by the producer's Deliver)
/// let it through: `task` runs `message` inline through the hop executor,
/// its emissions routed by its own collector (deeper fused edges inline,
/// queued ones staged). Returns the ledger contribution the fused
/// HopChannel collected. A crash rebuilds the bolt in place: the head's
/// thread IS this "process", and later tuples meet the fresh instance.
uint64_t TopologyEngine::ExecuteInline(Task* task, Message& message,
                                       bool duplicate) {
  uint64_t fused_xor = 0;
  HopChannel channel(this, task, &fused_xor);
  std::span<Message> one(&message, 1);
  size_t executed = 0;
  // Redelivery: the bolt genuinely executes twice (the duplication
  // at-least-once permits), each copy its own delivery.
  if (duplicate) ExecuteHop(task, one, channel, &executed);
  ExecuteHop(task, one, channel, &executed);
  task->metrics->IncExecuted(executed);
  return fused_xor;
}

/// The barrier-aware split (epochs on). Barriers feed the aligner; data
/// from a producer that already barriered past this task's aligned epoch
/// is parked in `task->held` until alignment catches up, so a bolt's state
/// at snapshot time contains exactly the effects of epochs <= the snapshot
/// epoch. The data runs in between go to the hop executor unchanged.
/// Returns the messages leaving the pending count (parked ones stay).
size_t TopologyEngine::ExecuteAligned(Task* task, std::span<Message> batch,
                                      HopChannel& channel, size_t* executed) {
  size_t consumed = batch.size();
  bool crashed = false;
  size_t run_begin = 0;
  for (size_t i = 0; i < batch.size() && !crashed; i++) {
    Message& message = batch[i];
    const bool barrier = message.tuple.IsBarrier();
    if (!barrier && !task->aligner->ShouldHold(message.producer_task)) {
      continue;  // Joins the current run.
    }
    crashed = ExecuteHop(task, batch.subspan(run_begin, i - run_begin),
                         channel, executed);
    run_begin = i + 1;
    if (crashed) break;
    if (barrier) {
      crashed = HandleBarrier(task, message.producer_task,
                              message.tuple.barrier_epoch(), executed);
    } else {
      // This producer already barriered ahead: the message belongs to a
      // later epoch than this task has aligned on. It stays pending (the
      // drain protocol keeps the topology open) until released.
      task->held_tags.push_back(task->aligner->HoldTag(message.producer_task));
      task->held.push_back(std::move(message));
      consumed--;
    }
  }
  if (!crashed && run_begin < batch.size()) {
    crashed = ExecuteHop(task, batch.subspan(run_begin), channel, executed);
  }
  if (crashed && !task->held.empty()) {
    // Held input dies with the crashed task too.
    consumed += task->held.size();
    task->held.clear();
    task->held_tags.clear();
  }
  return consumed;
}

/// One barrier marker reached this task. When the aligner reports full
/// alignment on a new epoch: snapshot first (state now holds exactly
/// epochs <= snap), then forward the barrier (emissions so far precede it
/// in every slot), then release held input (its emissions land after the
/// barrier, in the next epoch — matching the tags the data carries).
/// Returns true when the released input crashed the task.
bool TopologyEngine::HandleBarrier(Task* task, uint32_t producer,
                                   uint64_t epoch, size_t* executed) {
  const uint64_t snap = task->aligner->OnBarrier(producer, epoch, NowNanos());
  if (snap == 0) return false;
  SnapshotTask(task, snap);
  task->collector->EmitBarrier(snap);
  return ReleaseHeld(task, snap + 1, executed);
}

/// Executes (and finishes) every held message with tag <= max_tag as one
/// run, compacting the rest in place. A crash kills all remaining held
/// input, released or not — it was the in-memory input of the dead task.
bool TopologyEngine::ReleaseHeld(Task* task, uint64_t max_tag,
                                 size_t* executed) {
  if (task->held.empty()) return false;
  std::vector<Message> released;
  size_t kept = 0;
  for (size_t i = 0; i < task->held.size(); i++) {
    if (task->held_tags[i] <= max_tag) {
      released.push_back(std::move(task->held[i]));
      continue;
    }
    if (kept != i) {
      task->held[kept] = std::move(task->held[i]);
      task->held_tags[kept] = task->held_tags[i];
    }
    kept++;
  }
  HopChannel channel(this, task);
  const bool crashed = ExecuteHop(task, released, channel, executed);
  size_t finished = released.size();
  if (crashed) {
    finished += kept;
    kept = 0;
  }
  task->held.resize(kept);
  task->held_tags.resize(kept);
  FinishPending(finished);
  return crashed;
}

/// Shutdown safety valve: unconditionally releases whatever is still held
/// when this task's input is closed and drained. Normally unreachable —
/// held messages keep pending_messages_ > 0, so Run() cannot close the
/// queues before an alignment or a timeout released them — but it
/// guarantees the loop exit never strands pending counts.
void TopologyEngine::FlushHeld(Task* task) {
  if (task->aligner == nullptr || task->held.empty()) return;
  size_t executed = 0;
  ReleaseHeld(task, UINT64_MAX, &executed);
  task->collector->FlushAll();
  task->metrics->IncExecuted(executed);
}

/// Alignment-timeout recovery: a barrier lost or badly delayed toward this
/// task would otherwise starve its alignment (and hold its data, and
/// starve downstream alignments) forever. On timeout the task abandons the
/// stuck epochs — no snapshot, no ack, so they simply never complete and
/// restore will not use them — realigns at the highest barrier it has
/// seen, forwards that barrier, and releases the held data. Checkpointing
/// retries at the next epoch instead of wedging the data plane.
void TopologyEngine::MaybeEpochTimeout(Task* task) {
  if (task->aligner == nullptr) return;
  if (!task->aligner->TimedOut(NowNanos())) return;
  const uint64_t forced = task->aligner->ForceAdvance();
  epoch_timeouts_.fetch_add(1, std::memory_order_relaxed);
  size_t executed = 0;
  task->collector->EmitBarrier(forced);
  ReleaseHeld(task, forced + 1, &executed);
  task->collector->FlushAll();
  task->metrics->IncExecuted(executed);
}

/// One task's epoch cut, for spouts, aligned bolts and fused followers
/// alike: its frame into the store, then the coordinator ack.
void TopologyEngine::SnapshotTask(Task* task, uint64_t epoch) {
  std::optional<std::vector<uint8_t>> frame =
      task->spout != nullptr ? task->spout->SnapshotEpoch(epoch)
                             : task->bolt->SnapshotEpoch(epoch);
  if (frame.has_value()) {
    config_.checkpoint_store->Put(
        EpochTaskKey(epoch,
                     topology_.components()[task->component_index].name,
                     task->task_index),
        std::move(*frame));
  }
  task->last_snapshot_epoch = epoch;
  coordinator_->AckEpoch(epoch, task->global_index);
}

/// Rehydrates `task` from its frame at `epoch` (0: nothing to restore),
/// which becomes the frame a crash-restart restores from. Resume passes
/// resume_from_epoch (a complete epoch — Run() checked the marker) on the
/// task's own thread after Open/Prepare, before any traffic; RestartBolt
/// passes the task's last snapshot. A task without a frame was stateless
/// at snapshot time and starts fresh.
void TopologyEngine::RestoreFromEpoch(Task* task, uint64_t epoch) {
  if (epoch == 0) return;
  task->last_snapshot_epoch = epoch;
  const std::string key = EpochTaskKey(
      epoch, topology_.components()[task->component_index].name,
      task->task_index);
  Result<std::vector<uint8_t>> frame = config_.checkpoint_store->Fetch(key);
  if (!frame.ok()) return;
  const Status restored =
      task->spout != nullptr
          ? task->spout->RestoreEpoch(epoch, frame.value())
          : task->bolt->RestoreEpoch(epoch, frame.value());
  STREAMLIB_CHECK_MSG(restored.ok(), "epoch %llu restore failed for %s: %s",
                      static_cast<unsigned long long>(epoch), key.c_str(),
                      restored.ToString().c_str());
}

uint64_t TopologyEngine::last_complete_epoch() const {
  return coordinator_ != nullptr ? coordinator_->last_complete() : 0;
}

uint64_t TopologyEngine::epochs_completed() const {
  return coordinator_ != nullptr ? coordinator_->epochs_completed() : 0;
}

/// Crash-restart recovery: discards the bolt instance (all in-memory
/// state) and builds a fresh one from the component factory, re-running
/// Prepare as a restarted worker would. State that matters must have been
/// checkpointed by the bolt itself — that contract is exactly what the
/// chaos suite verifies.
void TopologyEngine::RestartBolt(Task* task) {
  const ComponentSpec& spec = topology_.components()[task->component_index];
  task->bolt = spec.bolt_factory();
  task->bolt->Prepare(task->task_index, spec.parallelism);
  if (coordinator_ == nullptr) return;
  // Epoch fence: the restarted instance rebuilds from its frame at
  // last_snapshot_epoch, which is missing every already-acked effect
  // applied after that snapshot — and acked roots will not replay. Any
  // frame this task writes later inherits that gap, so no epoch beyond
  // the snapshot may ever be marked complete in this run; the resumable
  // point stays at the last epoch whose frames are known whole.
  coordinator_->FenceEpochsAfter(task->last_snapshot_epoch);
  RestoreFromEpoch(task, task->last_snapshot_epoch);
}

void TopologyEngine::DedicatedBoltLoop(Task* task) {
  task->bolt->Prepare(
      task->task_index,
      topology_.components()[task->component_index].parallelism);
  RestoreFromEpoch(task, config_.resume_from_epoch);
  PrepareFollowers(task);
  const size_t max_batch = std::max<size_t>(1, config_.execute_batch_size);
  std::vector<Message> batch;
  batch.reserve(max_batch);
  if (task->aligner == nullptr) {
    while (true) {
      batch.clear();
      const size_t n = task->InPopBatch(batch, max_batch);
      if (n == 0) break;  // Closed and drained.
      ExecuteBatch(task, std::span<Message>(batch.data(), n));
    }
    return;
  }
  // Epoch variant: the blocking pop becomes a timed pop so a task whose
  // alignment is starving (dropped barrier, stalled producer) still gets
  // to run the timeout check while its queue is quiet.
  while (true) {
    batch.clear();
    const size_t n =
        task->InPopBatchTimed(batch, max_batch, std::chrono::milliseconds(1));
    if (n == 0) {
      if (task->InClosed() && task->InSize() == 0) {
        FlushHeld(task);
        break;
      }
      MaybeEpochTimeout(task);
      continue;
    }
    ExecuteBatch(task, std::span<Message>(batch.data(), n));
    MaybeEpochTimeout(task);
  }
}

void TopologyEngine::MultiplexedWorkerLoop(const std::vector<Task*>& tasks) {
  // One executor thread serving many task queues round-robin (Storm-style
  // multiplexing): drain each queue in batches, sleep briefly when idle
  // (a worker polls many queues, so it cannot block on any single one).
  const size_t max_batch = std::max<size_t>(1, config_.execute_batch_size);
  std::vector<Message> batch;
  batch.reserve(max_batch);
  while (true) {
    bool any = false;
    for (Task* task : tasks) {
      batch.clear();
      const size_t n = task->InTryPopBatch(batch, max_batch);
      if (n == 0) {
        MaybeEpochTimeout(task);
        continue;
      }
      any = true;
      ExecuteBatch(task, std::span<Message>(batch.data(), n));
      MaybeEpochTimeout(task);
    }
    if (!any) {
      bool all_done = true;
      for (Task* task : tasks) {
        if (!task->InClosed() || task->InSize() > 0) {
          all_done = false;
          break;
        }
      }
      if (all_done) {
        bool flushed = false;
        for (Task* task : tasks) {
          if (task->aligner != nullptr && !task->held.empty()) {
            FlushHeld(task);
            flushed = true;
          }
        }
        if (flushed) continue;  // Released emissions may need a last sweep.
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

void TopologyEngine::AckerLoop() {
  const uint64_t timeout_nanos =
      static_cast<uint64_t>(config_.ack_timeout_seconds * 1e9);
  uint64_t last_scan = NowNanos();
  std::vector<AckerEvent> events;
  events.reserve(1024);
  while (true) {
    events.clear();
    // Timed blocking wait (no spin-sleep): wake on traffic, or on the
    // timeout slice to run the periodic ack-timeout scan.
    const size_t n = acker_queue_->PopBatchWithTimeout(
        events, 1024, std::chrono::milliseconds(5));
    if (n == 0 && acker_queue_->Closed()) break;
    size_t resolved = ack_ledger_->Apply(events);
    // Periodic timeout scan.
    const uint64_t now = NowNanos();
    if (now - last_scan > timeout_nanos / 4 + 1000000) {
      last_scan = now;
      resolved += ack_ledger_->FailExpired(now, timeout_nanos);
    }
    if (resolved > 0) {
      progress_cv_.notify_all();  // Throttled spouts / the drain wait.
    }
  }
  // Shutdown: anything left unresolved fails.
  if (ack_ledger_->FailAll() > 0) progress_cv_.notify_all();
}

/// Synchronous collector used by the post-drain Finish() pass: emissions
/// route like live traffic but invoke downstream Execute directly (all
/// worker threads have stopped, so this is safe and single-threaded).
class TopologyEngine::FinishCollector : public OutputCollector {
 public:
  FinishCollector(TopologyEngine* engine, Task* task, uint64_t seed)
      : engine_(engine), task_(task), rng_(seed) {}

  void Emit(Tuple tuple) override {
    task_->metrics->IncEmitted();
    std::vector<Task*> targets;
    for (const Edge& edge : engine_->outgoing_[task_->component_index]) {
      // Each edge's targets run before the next edge routes: a delivery's
      // downstream seed and the next shuffle draw share rng_.
      targets.clear();
      Route(edge, task_->task_index, tuple, rng_, targets);
      for (Task* target : targets) Deliver(target, tuple);
    }
  }

 private:
  void Deliver(Task* target, const Tuple& tuple) {
    FinishCollector downstream(engine_, target, rng_.Next());
    try {
      target->bolt->Execute(tuple, &downstream);
      target->metrics->IncExecuted();
    } catch (...) {
      // As in ExecuteHop: a throwing Execute fails the tuple, never the
      // engine, so Run()'s telemetry epilogue still runs.
      target->metrics->IncBoltExceptions();
    }
  }

  TopologyEngine* engine_;
  Task* task_;
  Rng rng_;
};

void TopologyEngine::RunFinishPass() {
  // Components are already topologically ordered; flush each bolt task so
  // aggregates emitted here flow to (not-yet-finished) downstream bolts.
  for (const auto& task : tasks_) {
    if (task->bolt == nullptr) continue;
    FinishCollector collector(this, task.get(),
                              config_.seed ^ task->global_index);
    task->bolt->Finish(&collector);
  }
}

void TopologyEngine::Run() {
  STREAMLIB_CHECK_MSG(!ran_, "TopologyEngine is single-use");
  ran_ = true;
  const Status config_status = config_.Validate();
  STREAMLIB_CHECK_MSG(config_status.ok(), "invalid EngineConfig: %s",
                      config_status.ToString().c_str());
  BuildTasks();
  if (config_.epoch_interval_tuples > 0) {
    // Every task (spouts included) acks every epoch; the coordinator marks
    // an epoch complete — restorable — only on the full set.
    coordinator_ = std::make_unique<CheckpointCoordinator>(
        config_.checkpoint_store, tasks_.size(), config_.resume_from_epoch);
  }
  if (config_.resume_from_epoch > 0) {
    STREAMLIB_CHECK_MSG(
        config_.checkpoint_store->Get(EpochCompleteKey(config_.resume_from_epoch))
            .has_value(),
        "resume_from_epoch %llu was never marked complete",
        static_cast<unsigned long long>(config_.resume_from_epoch));
  }
  StartSampler();

  if (TracksTuples(config_.semantics)) {
    acker_thread_ = std::thread([this] { AckerLoop(); });
  }

  // Bolt executors. Fused followers get no thread (and have no input
  // channel to drain or close) — they execute inline on their head's
  // thread.
  std::vector<Task*> bolt_tasks;
  for (const auto& task : tasks_) {
    if (task->bolt != nullptr && task->fused_head == nullptr) {
      bolt_tasks.push_back(task.get());
    }
  }
  if (config_.mode == ExecutionMode::kDedicated) {
    for (Task* task : bolt_tasks) {
      threads_.emplace_back([this, task] { DedicatedBoltLoop(task); });
    }
  } else {
    const uint32_t workers =
        std::max<uint32_t>(1, config_.multiplexed_threads);
    std::vector<std::vector<Task*>> assignment(workers);
    for (size_t i = 0; i < bolt_tasks.size(); i++) {
      assignment[i % workers].push_back(bolt_tasks[i]);
    }
    for (Task* task : bolt_tasks) {
      task->bolt->Prepare(
          task->task_index,
          topology_.components()[task->component_index].parallelism);
      RestoreFromEpoch(task, config_.resume_from_epoch);
    }
    for (uint32_t w = 0; w < workers; w++) {
      if (assignment[w].empty()) continue;
      auto tasks = assignment[w];
      threads_.emplace_back(
          [this, tasks] { MultiplexedWorkerLoop(tasks); });
    }
  }

  // Spouts.
  std::vector<std::thread> spout_threads;
  for (const auto& task : tasks_) {
    if (task->spout != nullptr) {
      spout_threads.emplace_back([this, t = task.get()] { SpoutLoop(t); });
    }
  }
  for (auto& t : spout_threads) t.join();
  spouts_done_.store(true, std::memory_order_release);

  // Drain: wait until no message is queued or mid-execution, and (at least
  // once) until every tuple tree resolved. Timed waits on progress_cv_
  // (executors notify on pending hitting zero, the acker on resolves).
  {
    auto drained = [this] {
      return pending_messages_.load(std::memory_order_acquire) == 0 &&
             (!TracksTuples(config_.semantics) ||
              inflight_roots_.load(std::memory_order_relaxed) == 0);
    };
    std::unique_lock<std::mutex> lock(progress_mu_);
    while (!drained()) {
      progress_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

  // Stop executors.
  for (Task* task : bolt_tasks) task->InClose();
  for (auto& t : threads_) t.join();
  threads_.clear();

  if (TracksTuples(config_.semantics)) {
    acker_queue_->Close();
    acker_thread_.join();
  }

  RunFinishPass();

  // Telemetry epilogue: final tail sample (so delta sums equal the final
  // counters, finish-pass emissions included), then merge the per-task
  // trace rings into span trees — all writers have joined by now.
  if (sampler_) sampler_->Stop();
  DrainTraces();

  // Attach the run's final counters to the recording so a replay can be
  // verified against the original from the file alone. The caller still
  // owns Finalize().
  if (config_.recorder != nullptr) config_.recorder->SetSummary(Summary());
}

RunSummary TopologyEngine::Summary() const {
  RunSummary summary;
  summary.completed_roots = completed_roots();
  summary.failed_roots = failed_roots();
  if (fault_plan_ != nullptr) summary.faults_by_kind = fault_plan_->Snapshot();
  summary.tasks.reserve(metrics_.task_count());
  for (size_t i = 0; i < metrics_.task_count(); i++) {
    const TaskMetrics& m = metrics_.task(i);
    summary.tasks.push_back(RunSummary::TaskCounters{
        m.emitted(), m.executed(), m.acked(), m.failed(),
        m.bolt_exceptions()});
  }
  return summary;
}

// ------------------------------------------------------------ drive mode

void TopologyEngine::StepBuild() {
  STREAMLIB_CHECK_MSG(!ran_, "TopologyEngine is single-use");
  ran_ = true;
  stepped_ = true;
  BuildTasks();
  for (const auto& task : tasks_) {
    if (task->bolt == nullptr) continue;
    task->bolt->Prepare(
        task->task_index,
        topology_.components()[task->component_index].parallelism);
  }
}

void TopologyEngine::StepInject(size_t spout_task, const Tuple& tuple) {
  TaskCollector* collector = tasks_[spout_task]->collector.get();
  collector->Emit(tuple);
  collector->FlushAll();
  StepResolveAcks();
}

void TopologyEngine::StepExecute() {
  Task* task = tasks_[step_order_.front()].get();
  step_order_.pop_front();
  std::vector<Message> batch;
  task->queue->TryPopBatch(batch, 1);
  ExecuteBatch(task, std::span<Message>(batch));
  StepResolveAcks();
}

void TopologyEngine::StepResolveAcks() {
  if (ack_ledger_ == nullptr) return;
  std::vector<AckerEvent> events;
  acker_queue_->TryPopBatch(events, SIZE_MAX);
  ack_ledger_->Apply(events);
  if (pending_messages_.load(std::memory_order_relaxed) == 0) {
    ack_ledger_->FailAll();
  }
}

Bolt* TopologyEngine::TaskBolt(size_t global_index) const {
  return tasks_[global_index]->bolt.get();
}

}  // namespace streamlib::platform
