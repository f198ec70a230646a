#include "platform/replay.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace streamlib::platform {

namespace {

/// The recorded config as the drive mode runs it: virtual time, no
/// sampler thread, no tracing, nothing recorded.
EngineConfig SteppedConfig(EngineConfig config, Clock* clock) {
  config.clock = clock;
  config.telemetry_sample_interval_ms = 0;
  config.trace_sample_every = 0;
  config.recorder = nullptr;
  return config;
}

}  // namespace

ReplayEngine::ReplayEngine(Topology topology, RecordedRun run,
                           ReplayOptions options)
    : run_(std::move(run)),
      options_(options),
      engine_(std::make_unique<TopologyEngine>(
          std::move(topology), SteppedConfig(run_.config, &clock_))) {}

ReplayEngine::~ReplayEngine() = default;

Status ReplayEngine::Prepare() {
  if (prepared_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare called twice");
  }
  STREAMLIB_RETURN_NOT_OK(
      MatchesTopology(run_.fingerprint, engine_->topology_));
  STREAMLIB_RETURN_NOT_OK(run_.config.Validate());
  engine_->StepBuild();
  inputs_seen_.assign(task_count(), 0);
  for (const RecordedEmission& emission : run_.emissions) {
    if (emission.spout_task >= task_count() ||
        engine_->TaskBolt(emission.spout_task) != nullptr) {
      return Status::Corruption(
          "recording: emission references task " +
          std::to_string(emission.spout_task) + " which is not a spout task");
    }
  }
  prepared_ = true;
  return Status::OK();
}

void ReplayEngine::AddBreakpoint(const Breakpoint& breakpoint) {
  breakpoints_.push_back(breakpoint);
}

void ReplayEngine::StepInternal(bool allow_finish) {
  if (!engine_->step_order_.empty()) {
    inputs_seen_[engine_->step_order_.front()]++;
    engine_->StepExecute();
  } else if (next_emission_ < run_.emissions.size()) {
    const RecordedEmission& emission = run_.emissions[next_emission_++];
    engine_->StepInject(emission.spout_task, emission.tuple);
  } else if (allow_finish && !finish_done_) {
    engine_->RunFinishPass();
    finish_done_ = true;
  }
}

bool ReplayEngine::Done() const {
  return prepared_ && next_emission_ == run_.emissions.size() &&
         engine_->step_order_.empty() && finish_done_;
}

bool ReplayEngine::PreStepBreakpoint() const {
  if (engine_->step_order_.empty()) return false;
  const size_t next = engine_->step_order_.front();
  for (const Breakpoint& bp : breakpoints_) {
    if (bp.kind != Breakpoint::Kind::kTaskTuple) continue;
    if (bp.task != next) continue;
    const uint64_t ordinal = std::max<uint64_t>(1, bp.count);
    if (inputs_seen_[next] + 1 == ordinal) return true;
  }
  return false;
}

bool ReplayEngine::PostStepBreakpoint() {
  for (const Breakpoint& bp : breakpoints_) {
    switch (bp.kind) {
      case Breakpoint::Kind::kFirstFault:
        if (!first_fault_fired_ && fault_plan() != nullptr &&
            fault_plan()->total_injected() > 0) {
          first_fault_fired_ = true;
          return true;
        }
        break;
      case Breakpoint::Kind::kCheckpoint:
        if (!checkpoint_fired_ && options_.checkpoint_store != nullptr &&
            options_.checkpoint_store->TotalPuts() >= bp.count) {
          checkpoint_fired_ = true;
          return true;
        }
        break;
      case Breakpoint::Kind::kTaskTuple:
        break;  // Pre-step condition.
    }
  }
  return false;
}

ReplayStop ReplayEngine::Step() {
  STREAMLIB_CHECK_MSG(prepared_, "ReplayEngine::Prepare must succeed first");
  if (Done()) return ReplayStop::kEnd;
  StepInternal(/*allow_finish=*/true);
  // A manual step moves past a pending kTaskTuple breakpoint, gdb-style.
  skip_pre_check_once_ = false;
  return Done() ? ReplayStop::kEnd : ReplayStop::kStep;
}

ReplayStop ReplayEngine::Run() {
  STREAMLIB_CHECK_MSG(prepared_, "ReplayEngine::Prepare must succeed first");
  while (!Done()) {
    if (!skip_pre_check_once_ && PreStepBreakpoint()) {
      skip_pre_check_once_ = true;  // Resume executes the paused tuple.
      return ReplayStop::kBreakpoint;
    }
    skip_pre_check_once_ = false;
    StepInternal(/*allow_finish=*/true);
    if (PostStepBreakpoint()) return ReplayStop::kBreakpoint;
  }
  return ReplayStop::kEnd;
}

Status ReplayEngine::RunToEmission(uint64_t emission_count) {
  if (!prepared_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare must run first");
  }
  const uint64_t target =
      std::min<uint64_t>(emission_count, run_.emissions.size());
  if (next_emission_ > target) {
    return Status::FailedPrecondition(
        "replay already past emission " + std::to_string(target));
  }
  while (next_emission_ < target || !engine_->step_order_.empty()) {
    StepInternal(/*allow_finish=*/false);
  }
  return Status::OK();
}

size_t ReplayEngine::pending_deliveries() const {
  return engine_->step_order_.size();
}

uint64_t ReplayEngine::inputs_seen(size_t global_index) const {
  STREAMLIB_CHECK(global_index < task_count());
  return inputs_seen_[global_index];
}

size_t ReplayEngine::task_count() const {
  return engine_->metrics_.task_count();
}

const TaskMetrics& ReplayEngine::task_metrics(size_t global_index) const {
  STREAMLIB_CHECK(global_index < task_count());
  return engine_->metrics_.task(global_index);
}

std::optional<std::vector<uint8_t>> ReplayEngine::TaskStateBlob(
    size_t global_index) const {
  STREAMLIB_CHECK(global_index < task_count());
  const Bolt* bolt = engine_->TaskBolt(global_index);
  if (bolt == nullptr) return std::nullopt;
  return bolt->StateBlob();
}

Result<std::vector<uint8_t>> ReplayEngine::BoltStateBlob(
    const std::string& component, uint32_t task_index) const {
  for (size_t i = 0; i < task_count(); i++) {
    const TaskMetrics& metrics = task_metrics(i);
    if (metrics.component() != component ||
        metrics.task_index() != task_index) {
      continue;
    }
    const Bolt* bolt = engine_->TaskBolt(i);
    if (bolt == nullptr) {
      return Status::InvalidArgument("component '" + component +
                                     "' is a spout (no bolt state)");
    }
    std::optional<std::vector<uint8_t>> blob = bolt->StateBlob();
    if (!blob.has_value()) {
      return Status::Unimplemented("bolt '" + component +
                                   "' exposes no StateBlob");
    }
    return *std::move(blob);
  }
  return Status::NotFound("no task '" + component + "[" +
                          std::to_string(task_index) + "]' in topology");
}

RunSummary ReplayEngine::Summary() const { return engine_->Summary(); }

Status ReplayEngine::CompareWithRecorded() const {
  if (!run_.has_summary) {
    return Status::FailedPrecondition(
        "recording carries no run summary to compare against");
  }
  const RunSummary& want = run_.summary;
  const RunSummary got = Summary();
  auto mismatch = [](const std::string& what, uint64_t got_v,
                     uint64_t want_v) {
    return Status::Internal("replay diverged from recording: " + what +
                            " = " + std::to_string(got_v) + ", recorded " +
                            std::to_string(want_v));
  };
  if (got.completed_roots != want.completed_roots) {
    return mismatch("completed_roots", got.completed_roots,
                    want.completed_roots);
  }
  if (got.failed_roots != want.failed_roots) {
    return mismatch("failed_roots", got.failed_roots, want.failed_roots);
  }
  for (size_t k = 0; k < kNumFaultKinds; k++) {
    if (got.faults_by_kind[k] != want.faults_by_kind[k]) {
      return mismatch(std::string("faults[") +
                          FaultKindName(static_cast<FaultKind>(k)) + "]",
                      got.faults_by_kind[k], want.faults_by_kind[k]);
    }
  }
  if (got.tasks.size() != want.tasks.size()) {
    return mismatch("task count", got.tasks.size(), want.tasks.size());
  }
  for (size_t i = 0; i < got.tasks.size(); i++) {
    const std::string prefix =
        task_metrics(i).component() + "[" +
        std::to_string(task_metrics(i).task_index()) + "].";
    if (got.tasks[i].emitted != want.tasks[i].emitted) {
      return mismatch(prefix + "emitted", got.tasks[i].emitted,
                      want.tasks[i].emitted);
    }
    if (got.tasks[i].executed != want.tasks[i].executed) {
      return mismatch(prefix + "executed", got.tasks[i].executed,
                      want.tasks[i].executed);
    }
    if (got.tasks[i].acked != want.tasks[i].acked) {
      return mismatch(prefix + "acked", got.tasks[i].acked,
                      want.tasks[i].acked);
    }
    if (got.tasks[i].failed != want.tasks[i].failed) {
      return mismatch(prefix + "failed", got.tasks[i].failed,
                      want.tasks[i].failed);
    }
    if (got.tasks[i].bolt_exceptions != want.tasks[i].bolt_exceptions) {
      return mismatch(prefix + "bolt_exceptions",
                      got.tasks[i].bolt_exceptions,
                      want.tasks[i].bolt_exceptions);
    }
  }
  return Status::OK();
}

// ----------------------------------------------------- FindFirstDivergence

namespace {

using TaskStates = std::vector<std::optional<std::vector<uint8_t>>>;

Result<TaskStates> StatesAfter(const ReplayTarget& target, uint64_t count) {
  ReplayEngine engine(target.topology(), *target.run);
  STREAMLIB_RETURN_NOT_OK(engine.Prepare());
  STREAMLIB_RETURN_NOT_OK(engine.RunToEmission(count));
  TaskStates states;
  states.reserve(engine.task_count());
  for (size_t i = 0; i < engine.task_count(); i++) {
    states.push_back(engine.TaskStateBlob(i));
  }
  return states;
}

}  // namespace

Result<std::optional<uint64_t>> FindFirstDivergence(const ReplayTarget& a,
                                                    const ReplayTarget& b) {
  if (a.run == nullptr || b.run == nullptr || !a.topology || !b.topology) {
    return Status::InvalidArgument(
        "FindFirstDivergence: both targets need a topology and a run");
  }
  const uint64_t n =
      std::min<uint64_t>(a.run->emissions.size(), b.run->emissions.size());
  auto equal_at = [&](uint64_t m) -> Result<bool> {
    Result<TaskStates> sa = StatesAfter(a, m);
    STREAMLIB_RETURN_NOT_OK(sa.status());
    Result<TaskStates> sb = StatesAfter(b, m);
    STREAMLIB_RETURN_NOT_OK(sb.status());
    return sa.value() == sb.value();
  };

  Result<bool> at_end = equal_at(n);
  STREAMLIB_RETURN_NOT_OK(at_end.status());
  if (at_end.value()) {
    if (a.run->emissions.size() != b.run->emissions.size()) {
      // Identical over the common prefix; the first extra emission of the
      // longer recording is where they part ways.
      return std::optional<uint64_t>(n);
    }
    return std::optional<uint64_t>(std::nullopt);
  }
  Result<bool> at_start = equal_at(0);
  STREAMLIB_RETURN_NOT_OK(at_start.status());
  if (!at_start.value()) {
    // Initial states already differ (different restore checkpoints or bolt
    // construction) — before any recorded tuple.
    return std::optional<uint64_t>(0);
  }
  uint64_t lo = 0;  // States equal after lo emissions.
  uint64_t hi = n;  // States differ after hi emissions.
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    Result<bool> eq = equal_at(mid);
    STREAMLIB_RETURN_NOT_OK(eq.status());
    if (eq.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Replaying emission hi-1 (0-based) is the first to diverge the state.
  return std::optional<uint64_t>(hi - 1);
}

}  // namespace streamlib::platform
