#ifndef STREAMLIB_PLATFORM_REPLAY_H_
#define STREAMLIB_PLATFORM_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/engine.h"
#include "platform/metrics.h"
#include "platform/recorder.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// \file replay.h
/// Time-travel re-execution of a flight recording (recorder.h). The
/// replayer is not a second engine: it builds the real TopologyEngine from
/// the recorded config and drives it through the engine's single-threaded
/// drive mode — the same tasks, routing, staging, hop executor, fused
/// edges, fault sites and ack ledger a live run uses, under a ManualClock
/// (injected delays and stalls return at once), with the sampler and
/// tracing off. Recorded spout emissions are injected into the spout
/// task's own collector; every other nondeterministic decision — shuffle
/// routing, fault draws — is regenerated from the recorded seeds in each
/// site's own program order. Between any two units the debugger can pause,
/// inspect bolt state (Bolt::StateBlob) and live TaskMetrics, and resume.
///
/// Determinism contract (DESIGN.md §11): replay-vs-replay of one
/// recording is always bit-identical. Replay-vs-original is bit-identical
/// when (1) every bolt fed during the run phase has exactly one producer
/// *task* (chains and fields/shuffle fan-outs from a single source task —
/// combiners fed only by the single-threaded finish pass don't count),
/// (2) task_crash is only armed with execute_batch_size == 1, and (3)
/// with task_crash armed, the crash budget (max_task_crashes) never runs
/// out — an exhausted budget is claimed by concurrently-firing sites in
/// wall-clock order, which no sequential re-execution can reproduce, and
/// the denial leaks into the losing site's later draw stream (a crash
/// skips the acker-loss draw).
/// Condition (1) pins each task's input order to one producer's program
/// order; (2) pins a crash's blast radius, which is the rest of the popped
/// input — a timing-dependent size unless every pop is one message.
/// bolt_throw and acker_loss need no such condition: every delivery path
/// draws them per message, before the message runs, so batched and
/// per-tuple delivery consult the site identically. The live ack timeout
/// must also be long enough that only structurally unresolvable trees
/// fail. Fusion needs no condition: a fused hop runs inline on its
/// producer's thread in program order, live and replayed alike.
///
/// Epoch checkpointing (DESIGN.md §12) is outside this contract entirely:
/// recording requires epoch_interval_tuples == 0 and resume_from_epoch ==
/// 0 (EngineConfig::Validate rejects the combination). SLFR captures
/// neither fan-in barrier alignment timing (hold timers, force-advance)
/// nor the restored spout state a resumed run's first emission depends on;
/// a fused edge is no obstacle, as barriers cross it inline. Replay a
/// *fresh* run, or use the epoch determinism guarantees of
/// exactly_once_test.cc (fused and queued) instead.

/// A pause condition for replayed execution.
struct Breakpoint {
  enum class Kind {
    /// Pause before task `task` (global index) executes its `count`th
    /// queued input tuple (1-based). A fused follower has no queue: its
    /// inputs run inside its head's step, so this never fires on one.
    kTaskTuple,
    /// Pause as soon as the replayed FaultPlan has injected any fault.
    kFirstFault,
    /// Pause once the watched checkpoint store (ReplayOptions) has
    /// absorbed at least `count` Put calls.
    kCheckpoint,
  };
  Kind kind = Kind::kTaskTuple;
  size_t task = 0;     ///< kTaskTuple: global task index
  uint64_t count = 0;  ///< kTaskTuple: 1-based tuple ordinal; kCheckpoint: K
};

/// Why Run() / Step() returned control.
enum class ReplayStop {
  kBreakpoint,  ///< a breakpoint fired; inspect, then Run()/Step() again
  kStep,        ///< Step(): one unit executed, more remain
  kEnd,         ///< recording fully replayed, finish pass complete
};

struct ReplayOptions {
  /// Store watched by Breakpoint::kCheckpoint (not owned; may be null).
  const KvCheckpointStore* checkpoint_store = nullptr;
};

/// Deterministic single-threaded re-execution of one RecordedRun.
///
/// Unit of progress: one spout emission injected (with every fused hop it
/// runs inline), or one queued delivery executed at a bolt (likewise).
/// Deliveries run in the order their flushes reached the queues, and each
/// emission's full tuple tree drains before the next emission. Under
/// at-least-once the ack ledger is applied after every unit and a root
/// still open once its tree drained fails — replacing the live engine's
/// wall-clock ack timeout. Spout user code is never invoked (emissions
/// come from the file); acked/failed land on the spout task's metrics.
class ReplayEngine {
 public:
  ReplayEngine(Topology topology, RecordedRun run, ReplayOptions options = {});
  ~ReplayEngine();

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Validates the topology against the recording's fingerprint and
  /// builds tasks. Must be called (and return OK) before anything else.
  Status Prepare();

  void AddBreakpoint(const Breakpoint& breakpoint);

  /// Executes one unit. Returns kEnd when the replay just completed (or
  /// had already completed), kStep otherwise.
  ReplayStop Step();

  /// Runs until a breakpoint fires or the recording (including the finish
  /// pass) completes.
  ReplayStop Run();

  /// Replays until exactly `emission_count` recorded emissions have been
  /// injected and their trees fully drained, ignoring breakpoints and
  /// never entering the finish pass. Counts past the recording clamp to
  /// its length. The divergence bisector's probe primitive.
  Status RunToEmission(uint64_t emission_count);

  bool Done() const;
  uint64_t emissions_processed() const { return next_emission_; }
  uint64_t total_emissions() const { return run_.emissions.size(); }
  /// Tuples currently queued inside the in-flight tree (0 when paused
  /// between trees).
  size_t pending_deliveries() const;
  /// Queued input tuples delivered to a task so far (kTaskTuple's counter;
  /// always 0 on a fused follower).
  uint64_t inputs_seen(size_t global_index) const;

  /// State snapshot of one bolt: Unimplemented if the bolt exposes no
  /// StateBlob, NotFound for an unknown component/task, InvalidArgument
  /// for a spout.
  Result<std::vector<uint8_t>> BoltStateBlob(const std::string& component,
                                             uint32_t task_index) const;
  /// Same by global task index; nullopt for spouts and blob-less bolts.
  std::optional<std::vector<uint8_t>> TaskStateBlob(size_t global_index) const;

  size_t task_count() const;
  const TaskMetrics& task_metrics(size_t global_index) const;
  MetricsRegistry& metrics() { return engine_->metrics(); }
  /// Null when the recording ran without fault injection.
  const FaultPlan* fault_plan() const { return engine_->fault_plan(); }
  uint64_t completed_roots() const { return engine_->completed_roots(); }
  uint64_t failed_roots() const { return engine_->failed_roots(); }
  const RecordedRun& run() const { return run_; }

  /// Current counters in the RunSummary shape (comparable to the
  /// recording's end-segment summary once the replay is Done()).
  RunSummary Summary() const;

  /// OK iff this replay reproduced the recording's end-segment summary
  /// exactly (roots, per-kind fault counts, per-task counters).
  /// FailedPrecondition when the recording carries no summary; Internal
  /// naming the first mismatched counter otherwise.
  Status CompareWithRecorded() const;

 private:
  void StepInternal(bool allow_finish);
  bool PreStepBreakpoint() const;
  bool PostStepBreakpoint();

  RecordedRun run_;
  ReplayOptions options_;
  bool prepared_ = false;

  ManualClock clock_;  // Outlives engine_.
  std::unique_ptr<TopologyEngine> engine_;
  std::vector<uint64_t> inputs_seen_;  // Per global task index.
  uint64_t next_emission_ = 0;
  bool finish_done_ = false;

  std::vector<Breakpoint> breakpoints_;
  bool skip_pre_check_once_ = false;
  bool first_fault_fired_ = false;
  bool checkpoint_fired_ = false;
};

/// One side of a divergence search. `topology` must build a *fresh*
/// topology per call (in particular, bolt factories capturing checkpoint
/// stores must capture stores private to that build — each probe replays
/// from scratch).
struct ReplayTarget {
  std::function<Topology()> topology;
  const RecordedRun* run = nullptr;
};

/// Binary-searches the earliest recorded emission index (0-based) whose
/// replay makes the two runs' bolt state diverge, comparing every bolt's
/// StateBlob bytes after each probe prefix. Returns nullopt when the two
/// recordings replay to identical state over their common length and have
/// equal length; the common length when one recording is a strict prefix
/// of the other. Assumes divergence is persistent (sketch state never
/// re-converges byte-for-byte once it differs) — the property that makes
/// the bisection sound.
Result<std::optional<uint64_t>> FindFirstDivergence(const ReplayTarget& a,
                                                    const ReplayTarget& b);

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_REPLAY_H_
