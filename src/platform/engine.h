#ifndef STREAMLIB_PLATFORM_ENGINE_H_
#define STREAMLIB_PLATFORM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "platform/fault.h"
#include "platform/metrics.h"
#include "platform/metrics_sampler.h"
#include "platform/plan.h"
#include "platform/queue.h"
#include "platform/telemetry.h"
#include "platform/topology.h"
#include "platform/trace.h"

namespace streamlib::platform {

class RunRecorder;
class ReplayEngine;
struct RunSummary;
class KvCheckpointStore;
class CheckpointCoordinator;
class Clock;

/// How bolt tasks map onto threads — the architectural axis the paper's
/// Storm-vs-Heron discussion (Section 3) turns on.
enum class ExecutionMode {
  /// Heron-style: every task runs in its own dedicated thread, blocking on
  /// its own input queue ("each task in a process of its own").
  kDedicated,
  /// Storm-style: a small pool of executor threads multiplexes all tasks,
  /// polling their queues round-robin ("disparate tasks multiplexed in a
  /// single worker" — the architecture Heron was built to replace).
  kMultiplexed,
};

/// Delivery guarantee for spout-rooted tuple trees.
enum class DeliverySemantics {
  kAtMostOnce,   ///< no tracking; failures lose tuples
  kAtLeastOnce,  ///< XOR-ledger acker; spouts see OnAck/OnFail
  /// At-least-once replay plus epoch-aligned barrier checkpoints plus
  /// checkpointed dedup state (DESIGN.md §12): every payload's effect is
  /// applied exactly once even across crash/restore. Requires a
  /// checkpoint_store and epoch_interval_tuples > 0.
  kExactlyOnce,
};

/// Whether a semantics level runs the acker / root-tracking machinery
/// (everything above at-most-once does).
inline bool TracksTuples(DeliverySemantics s) {
  return s != DeliverySemantics::kAtMostOnce;
}

/// Engine tuning knobs.
struct EngineConfig {
  ExecutionMode mode = ExecutionMode::kDedicated;
  DeliverySemantics semantics = DeliverySemantics::kAtMostOnce;
  size_t queue_capacity = 1024;      ///< per-task input queue bound
  uint32_t multiplexed_threads = 2;  ///< executor pool size (kMultiplexed)
  size_t max_spout_pending = 4096;   ///< at-least-once spout throttle
  uint64_t seed = 0x5eed;            ///< shuffle-grouping randomness
  /// Every Nth tuple contributes an end-to-end latency sample.
  uint32_t latency_sample_every = 64;
  /// At-least-once: a root not fully acked within this window fails (and
  /// the spout's OnFail may replay it).
  double ack_timeout_seconds = 5.0;
  /// Max input messages a bolt executor drains per queue operation.
  /// A BatchCapable() bolt takes each untraced multi-message run through
  /// one ExecuteBatch call; 1 disables input batching and so forces
  /// per-tuple Execute everywhere.
  size_t execute_batch_size = 128;
  /// Telemetry sampler period: every N ms a background thread snapshots
  /// all per-task counters and instantaneous queue depths into the time
  /// series exposed by TopologyEngine::telemetry(). 0 disables the sampler
  /// (no thread, and max_queue_depth stays 0 — the sampler owns gauges).
  uint32_t telemetry_sample_interval_ms = 10;
  /// Tuple tracing: every Kth spout root carries a trace id, and each hop
  /// records (task, queue wait, execute time) into per-task ring buffers
  /// that merge into span trees after Run(). 0 disables tracing; untraced
  /// tuples pay exactly one branch per hop.
  uint32_t trace_sample_every = 0;
  /// Deterministic fault injection (chaos testing): per-injection-point
  /// probabilities, all 0 by default — fully disabled, and the engine
  /// builds no sites or hooks. See fault.h for the determinism model.
  FaultSpec faults;
  /// Flight recorder (recorder.h): when set, every spout emission is
  /// captured before routing, and Run() attaches the final counters as the
  /// recording's summary. Not owned; the caller Finalize()s after Run().
  /// Null (the default) records nothing and costs one branch per emission.
  RunRecorder* recorder = nullptr;
  /// Epoch-aligned barrier checkpointing (DESIGN.md §12). Spouts inject an
  /// epoch barrier every `epoch_interval_tuples` emissions; bolts align on
  /// barriers across their input edges, snapshot their state into per-epoch
  /// frames in `checkpoint_store`, and a coordinator marks an epoch
  /// complete once every task acked it. 0 disables barriers entirely.
  /// Required (with a non-null store) for kExactlyOnce.
  uint64_t epoch_interval_tuples = 0;
  /// Per-epoch frame storage. Not owned; must outlive Run(). Required when
  /// epoch_interval_tuples > 0 or resume_from_epoch > 0.
  KvCheckpointStore* checkpoint_store = nullptr;
  /// A bolt whose alignment on the next barrier stalls longer than this
  /// (dropped/delayed barrier, stalled producer) force-advances: it skips
  /// the stuck epochs — they simply never complete — and realigns at the
  /// highest barrier it has seen, so checkpointing retries instead of
  /// wedging the data plane.
  double epoch_align_timeout_seconds = 0.5;
  /// Resume: restore every task from its frame at this (complete) epoch
  /// before pumping data, and number new epochs from here. 0 = fresh run.
  uint64_t resume_from_epoch = 0;
  /// Fused-operator compilation (DESIGN.md §13): lower the topology to a
  /// dataflow IR and run every edge whose consumer tasks each have exactly
  /// one producer task inline on that producer's thread (no queue, no
  /// per-hop ack traffic); every other edge stays queued. Off forces every
  /// edge through a queue — the switch fused ≡ queued tests and transport
  /// benches use.
  bool enable_fusion = true;
  /// Time source for latency stamps, ack/alignment timeouts, and trace
  /// timestamps. Null (the default) uses the process steady clock; tests
  /// inject a ManualClock to drive timeout paths deterministically.
  /// Not owned; must outlive Run().
  Clock* clock = nullptr;

  /// Checks knob ranges (0 means "disabled" for the telemetry knobs, not
  /// an error). Run() aborts on an invalid config; callers building
  /// configs from user input should validate first.
  Status Validate() const;
};

/// Executes a topology to completion: runs all spouts until exhausted,
/// drains in-flight tuples, then runs the Finish() pass. Single-use.
class TopologyEngine {
 public:
  TopologyEngine(Topology topology, EngineConfig config);
  ~TopologyEngine();

  TopologyEngine(const TopologyEngine&) = delete;
  TopologyEngine& operator=(const TopologyEngine&) = delete;

  /// Blocking run to completion.
  void Run();

  MetricsRegistry& metrics() { return metrics_; }

  /// Observability facade: live time series during Run() (sampler
  /// snapshots are thread-safe), full report including trace span trees
  /// once Run() returns. See telemetry.h.
  Telemetry& telemetry() { return telemetry_; }

  /// Completed (fully acked) tuple trees — at-least-once mode only.
  uint64_t completed_roots() const {
    return completed_roots_.load(std::memory_order_relaxed);
  }
  /// Failed tuple trees — at-least-once mode only.
  uint64_t failed_roots() const {
    return failed_roots_.load(std::memory_order_relaxed);
  }

  /// Number of bolt input queues backed by the SPSC ring (after Run()): a
  /// dedicated-mode bolt task whose producer tasks all run on one thread.
  size_t spsc_edges() const { return spsc_edges_; }

  /// The dataflow IR the engine compiled this topology into, with fusion
  /// decisions and per-edge vetoes. Built during Run()'s BuildTasks (null
  /// before Run()); always present afterwards, even with fusion disabled.
  const TopologyPlan* plan() const { return plan_.get(); }

  /// Edges realized as inline fused hops instead of queues (after Run()).
  /// 0 whenever enable_fusion is false or nothing was eligible.
  size_t fused_edges() const { return fused_edges_; }

  /// Injected-fault counters for this run; null when config.faults is
  /// disabled. Valid from Run() start (tests read it after Run returns).
  const FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Epoch checkpointing results (barriers enabled; after Run()).
  /// Highest epoch every task acked — the epoch a resumed run restores.
  uint64_t last_complete_epoch() const;
  /// Epochs that reached completion during this run.
  uint64_t epochs_completed() const;
  /// Alignment timeouts: times a bolt force-advanced past a stuck barrier.
  uint64_t epoch_timeouts() const {
    return epoch_timeouts_.load(std::memory_order_relaxed);
  }

 private:
  struct Task;
  struct Edge;
  class TaskCollector;
  class FinishCollector;
  class HopChannel;
  struct AckerEvent;
  class AckLedger;

  // The single-threaded drive mode (replay.h): a deterministic schedule
  // over the same tasks, collectors, hop executor and ack ledger Run()
  // uses. Every queued bolt gets a BlockingQueue, every flush force-pushes
  // (one thread produces and consumes) and appends its targets to
  // step_order_, and deliveries run one message at a time in that order.
  // Spouts are built but never opened or polled; emissions are injected.
  friend class ReplayEngine;
  void StepBuild();
  void StepInject(size_t spout_task, const Tuple& tuple);
  void StepExecute();
  /// Applies the staged acker events; once nothing is queued, fails every
  /// root still open (the drained tree can no longer clear its ledger).
  void StepResolveAcks();
  /// Null for spout tasks.
  Bolt* TaskBolt(size_t global_index) const;

  /// The run's final counters in the recording's shape.
  RunSummary Summary() const;

  /// The one routing function (run-phase and finish-pass emissions
  /// alike, queued and fused edges alike): appends the tasks one emission
  /// of `tuple` by producer task `producer` reaches over `edge`; shuffle
  /// draws from the emitting collector's `rng`.
  static void Route(const Edge& edge, uint32_t producer, const Tuple& tuple,
                    Rng& rng, std::vector<Task*>& out);

  void BuildTasks();
  void StartSampler();
  void DrainTraces();
  void PrepareFollowers(Task* head);
  void SpoutLoop(Task* task);
  void DedicatedBoltLoop(Task* task);
  void MultiplexedWorkerLoop(const std::vector<Task*>& tasks);
  void AckerLoop();
  void ExecuteBatch(Task* task, std::span<struct Message> batch);
  bool ExecuteHop(Task* task, std::span<struct Message> run,
                  HopChannel& channel, size_t* executed);
  uint64_t ExecuteInline(Task* task, struct Message& message, bool duplicate);
  void RestartBolt(Task* task);
  void RunFinishPass();

  /// Injected time source (config.clock or the steady default).
  uint64_t NowNanos() const;
  /// Injected delays and stalls (0 = none) sleep through the clock.
  void SleepMicros(uint32_t micros) const;
  /// Allocates one ack-ledger edge id.
  uint64_t NextEdgeId();

  // Epoch-barrier plumbing (all no-ops unless epoch_interval_tuples > 0).
  size_t ExecuteAligned(Task* task, std::span<struct Message> batch,
                        HopChannel& channel, size_t* executed);
  bool HandleBarrier(Task* task, uint32_t producer, uint64_t epoch,
                     size_t* executed);
  bool ReleaseHeld(Task* task, uint64_t max_tag, size_t* executed);
  void FlushHeld(Task* task);
  void MaybeEpochTimeout(Task* task);
  void SnapshotBoltEpoch(Task* task, uint64_t epoch);
  void InjectSpoutBarrier(Task* task, uint64_t epoch);
  void RestoreTaskState(Task* task);
  void FinishPending(size_t n);

  Topology topology_;
  EngineConfig config_;
  MetricsRegistry metrics_;
  Telemetry telemetry_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::atomic<uint64_t> epoch_timeouts_{0};

  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::vector<Edge>> outgoing_;  // Per component index.
  size_t spsc_edges_ = 0;
  std::unique_ptr<TopologyPlan> plan_;
  size_t fused_edges_ = 0;
  Clock* clock_;  // Never null after construction; not owned.

  std::atomic<uint64_t> pending_messages_{0};
  std::atomic<uint64_t> next_root_id_{1};
  std::atomic<uint64_t> next_edge_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> inflight_roots_{0};
  std::atomic<uint64_t> completed_roots_{0};
  std::atomic<uint64_t> failed_roots_{0};
  std::atomic<bool> spouts_done_{false};

  /// Signalled on progress the blocked sides wait for: roots resolving
  /// (spout throttle) and the pipeline draining (Run's drain wait). All
  /// waits are timed, so a missed notify costs bounded latency, never a
  /// hang.
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;

  std::unique_ptr<BlockingQueue<AckerEvent>> acker_queue_;
  std::unique_ptr<AckLedger> ack_ledger_;  // Tracked semantics only.
  std::thread acker_thread_;
  std::vector<std::thread> threads_;
  bool ran_ = false;

  bool stepped_ = false;
  std::deque<size_t> step_order_;  // Queued deliveries' target tasks.
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_ENGINE_H_
