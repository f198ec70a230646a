// Fused-operator topology compilation (DESIGN.md §13): the dataflow IR's
// shape, the fusion-legality rule and its vetoes, engine execution over
// fused edges — chains, 1->N fields fan-outs and two-arm spouts (counts,
// roots and sketch bytes identical to the queued baseline), the
// fused-vs-queued fault-schedule equality contract, batched ≡ per-tuple
// delivery (fault draws, blast radius, state; exactly-once included), and
// the injectable-Clock alignment-timeout determinism fix.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/state.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/plan.h"
#include "platform/recorder.h"
#include "platform/topology.h"
#include "chaos_util.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// --------------------------------------------------------------- helpers

std::unique_ptr<Spout> MakeCountingSpout(int64_t n) {
  return std::make_unique<GeneratorSpout>(
      [n, i = int64_t{0}]() mutable -> std::optional<Tuple> {
        if (i >= n) return std::nullopt;
        const int64_t v = i++;
        std::string key = "k";
        key += std::to_string(v % 17);
        return Tuple::Of(std::move(key), v);
      });
}

std::unique_ptr<Bolt> MakePassThroughBolt() {
  return std::make_unique<FunctionBolt>(
      [](const Tuple& input, OutputCollector* collector) {
        collector->Emit(Tuple(input));
      });
}

/// spout -> map -> sink, all parallelism 1, shuffle edges — the canonical
/// fully fusible 3-stage chain.
Topology ThreeStageChain(TupleSink* sink, int64_t tuples) {
  TopologyBuilder builder;
  builder.AddSpout("src", [tuples] { return MakeCountingSpout(tuples); });
  builder.AddBolt(
      "map", [] { return MakePassThroughBolt(); }, 1,
      {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink);
      },
      1, {{"map", Grouping::Shuffle()}});
  return builder.Build().value();
}

TopologyPlan PlanFor(const Topology& topology, const FusionOptions& options) {
  TopologyPlan plan = TopologyPlan::FromTopology(topology);
  plan.RunFusionPass(options);
  return plan;
}

FusionOptions FusionOn() {
  FusionOptions options;
  options.enable_fusion = true;
  return options;
}

const PlanEdge& EdgeBetween(const TopologyPlan& plan, const std::string& from,
                            const std::string& to) {
  for (const PlanEdge& edge : plan.edges()) {
    if (plan.nodes()[edge.from].name == from &&
        plan.nodes()[edge.to].name == to) {
      return edge;
    }
  }
  ADD_FAILURE() << "no edge " << from << " -> " << to;
  static PlanEdge missing;
  return missing;
}

// ------------------------------------------------------------ IR + pass

TEST(TopologyPlanTest, IrMirrorsTopologyShape) {
  TupleSink sink;
  Topology topology = ThreeStageChain(&sink, 1);
  TopologyPlan plan = TopologyPlan::FromTopology(topology);

  ASSERT_EQ(plan.nodes().size(), 3u);
  ASSERT_EQ(plan.edges().size(), 2u);
  EXPECT_TRUE(plan.nodes()[0].is_spout);
  EXPECT_EQ(plan.nodes()[0].name, "src");
  for (size_t i = 0; i < plan.nodes().size(); i++) {
    EXPECT_EQ(plan.nodes()[i].component_index, i);
  }
  const PlanEdge& first = EdgeBetween(plan, "src", "map");
  EXPECT_EQ(first.grouping.kind, GroupingKind::kShuffle);
  EXPECT_EQ(first.shards, 1u);
  EXPECT_EQ(first.channel, EdgeChannel::kQueued);  // Pass not run yet.
}

TEST(TopologyPlanTest, FusesThreeStageShuffleChain) {
  TupleSink sink;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 2u);
  for (const PlanEdge& edge : plan.edges()) {
    EXPECT_EQ(edge.channel, EdgeChannel::kFused);
    EXPECT_TRUE(edge.veto.empty());
  }
  EXPECT_NE(plan.ToString().find("FUSED"), std::string::npos);
}

TEST(TopologyPlanTest, EnabledByDefault) {
  TupleSink sink;
  EXPECT_TRUE(EngineConfig{}.enable_fusion);
  EXPECT_EQ(PlanFor(ThreeStageChain(&sink, 1), FusionOptions{})
                .fused_edge_count(),
            2u);

  FusionOptions off;
  off.enable_fusion = false;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), off);
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  for (const PlanEdge& edge : plan.edges()) {
    EXPECT_EQ(edge.veto, "fusion disabled");
  }
}

/// src x`producers` -> sink x`consumers` over `grouping`.
Topology TwoStage(TupleSink* sink, uint32_t producers, uint32_t consumers,
                  Grouping grouping) {
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(1); }, producers);
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink);
      },
      consumers, {{"src", grouping}});
  return builder.Build().value();
}

// The one structural rule: a single-input consumer whose tasks each have
// exactly one producer task fuses. A parallelism-1 producer feeds every
// consumer task alone, whatever the grouping.
TEST(FusionLegalityTest, SingleProducerFusesEveryGrouping) {
  TupleSink sink;
  for (const Grouping& grouping :
       {Grouping::Fields(0), Grouping::Broadcast(), Grouping::Global(),
        Grouping::Shuffle()}) {
    SCOPED_TRACE(GroupingKindName(grouping.kind));
    const uint32_t consumers =
        grouping.kind == GroupingKind::kGlobal ? 1 : 4;
    TopologyPlan plan =
        PlanFor(TwoStage(&sink, 1, consumers, grouping), FusionOn());
    const PlanEdge& edge = EdgeBetween(plan, "src", "sink");
    EXPECT_EQ(edge.channel, EdgeChannel::kFused) << plan.ToString();
    EXPECT_TRUE(edge.veto.empty());
  }
  // An equal-parallelism shuffle pairs producer task i with consumer i.
  TopologyPlan paired =
      PlanFor(TwoStage(&sink, 3, 3, Grouping::Shuffle()), FusionOn());
  EXPECT_EQ(paired.fused_edge_count(), 1u);
}

// Each refusal comes back as a typed Status and a stamped veto. With more
// than one producer task, a fields, broadcast or global edge feeds each
// consumer task from several threads: fan-in.
TEST(FusionLegalityTest, FieldsGroupedEdgeRefuses) {
  TupleSink sink;
  TopologyPlan plan =
      PlanFor(TwoStage(&sink, 2, 3, Grouping::Fields(0)), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 0u);
  const PlanEdge& edge = EdgeBetween(plan, "src", "sink");
  EXPECT_NE(edge.veto.find("fan-in: 2 producer tasks"), std::string::npos);
  EXPECT_NE(edge.veto.find("fields"), std::string::npos);
  const Status status = TopologyPlan::FusionLegality(
      plan.nodes()[edge.from], plan.nodes()[edge.to], edge, FusionOn());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FusionLegalityTest, BroadcastEdgeRefuses) {
  TupleSink sink;
  TopologyPlan plan =
      PlanFor(TwoStage(&sink, 2, 3, Grouping::Broadcast()), FusionOn());
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "sink").veto.find("broadcast"),
            std::string::npos);
}

TEST(FusionLegalityTest, MixedParallelismRefuses) {
  TupleSink sink;
  TopologyPlan plan =
      PlanFor(TwoStage(&sink, 2, 4, Grouping::Shuffle()), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 0u);
  const PlanEdge& edge = EdgeBetween(plan, "src", "sink");
  EXPECT_NE(edge.veto.find("fan-in: 2 producer tasks"), std::string::npos);
  const Status status = TopologyPlan::FusionLegality(
      plan.nodes()[edge.from], plan.nodes()[edge.to], edge, FusionOn());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FusionLegalityTest, GlobalGroupingFusesOnlyAtParallelismOne) {
  TupleSink sink;
  TopologyPlan plan =
      PlanFor(TwoStage(&sink, 2, 1, Grouping::Global()), FusionOn());
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "sink").veto.find("global"),
            std::string::npos);
  EXPECT_EQ(
      PlanFor(TwoStage(&sink, 1, 1, Grouping::Global()), FusionOn())
          .fused_edge_count(),
      1u);
}

// A consumer with two input edges merges two producers' streams and stays
// queued; a producer with two subscriptions fuses each arm that qualifies.
TEST(FusionLegalityTest, FanInRefusesAndFanOutArmsFuse) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("srcA", [] { return MakeCountingSpout(1); });
  builder.AddSpout("srcB", [] { return MakeCountingSpout(1); });
  builder.AddBolt(
      "merge", [] { return MakePassThroughBolt(); }, 1,
      {{"srcA", Grouping::Shuffle()}, {"srcB", Grouping::Shuffle()}});
  builder.AddBolt(
      "left",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"merge", Grouping::Shuffle()}});
  builder.AddBolt(
      "right",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      3, {{"merge", Grouping::Fields(0)}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 2u);
  EXPECT_NE(EdgeBetween(plan, "srcA", "merge").veto.find("fan-in"),
            std::string::npos);
  EXPECT_NE(EdgeBetween(plan, "srcB", "merge").veto.find("fan-in"),
            std::string::npos);
  EXPECT_EQ(EdgeBetween(plan, "merge", "left").channel, EdgeChannel::kFused);
  EXPECT_EQ(EdgeBetween(plan, "merge", "right").channel, EdgeChannel::kFused);
}

TEST(FusionLegalityTest, MultiplexedModeRefuses) {
  TupleSink sink;
  FusionOptions options = FusionOn();
  options.dedicated_mode = false;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), options);
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "map").veto.find("multiplexed"),
            std::string::npos);
}

// Epochs veto nothing: a fused follower has one producer task, so a
// barrier crosses its edge like a tuple and its arrival is the whole
// alignment (DESIGN.md §12). An exactly-once run fuses every
// single-producer edge and still completes every epoch.
TEST(FusionLegalityTest, EpochBarrierEdgesFuse) {
  TupleSink sink;
  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = DeliverySemantics::kExactlyOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 25;
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(ThreeStageChain(&sink, 100), config);
  engine.Run();
  EXPECT_EQ(engine.fused_edges(), 2u);
  EXPECT_EQ(engine.epochs_completed(), 4u);
  EXPECT_EQ(engine.last_complete_epoch(), 4u);
  EXPECT_EQ(engine.epoch_timeouts(), 0u);
  EXPECT_EQ(sink.Size(), 100u);
}

// A recorder attached to the run vetoes nothing: replay drives the same
// engine, fused plan included, so the whole spout chain still fuses.
TEST(FusionLegalityTest, RecorderAttachedSpoutChainFuses) {
  TupleSink sink;
  Topology topology = ThreeStageChain(&sink, 50);
  EngineConfig config;
  config.enable_fusion = true;
  config.telemetry_sample_interval_ms = 0;
  const std::string path = ::testing::TempDir() + "fusion_test_" +
                           std::to_string(::getpid()) + "_recorded.slfr";
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  config.recorder = recorder.value().get();
  TopologyEngine engine(std::move(topology), config);
  engine.Run();
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  std::remove(path.c_str());

  EXPECT_EQ(engine.fused_edges(), 2u);
  EXPECT_EQ(recorder.value()->records_written(), 50u);
  EXPECT_EQ(sink.Size(), 50u);
}

// ------------------------------------------------------ engine execution

struct RunOutcome {
  size_t sink_tuples = 0;
  uint64_t completed_roots = 0;
  uint64_t failed_roots = 0;
  size_t fused_edges = 0;
  size_t spsc_edges = 0;
  std::map<std::string, uint64_t> emitted;   // Per component.
  std::map<std::string, uint64_t> executed;  // Per component.
  std::vector<uint64_t> task_emitted;        // Per global task index.
  std::vector<uint64_t> task_executed;       // Per global task index.
  std::map<uint64_t, FaultSiteStats> site_stats;
  std::array<uint64_t, kNumFaultKinds> injected{};
};

EngineConfig ChainConfig(bool fuse, DeliverySemantics semantics,
                         const FaultSpec& faults) {
  EngineConfig config;
  config.semantics = semantics;
  config.enable_fusion = fuse;
  config.seed = 0xfeed;
  config.ack_timeout_seconds = 0.5;  // Poisoned roots fail fast.
  config.telemetry_sample_interval_ms = 0;
  config.faults = faults;
  return config;
}

RunOutcome Outcome(TopologyEngine& engine) {
  RunOutcome outcome;
  outcome.completed_roots = engine.completed_roots();
  outcome.failed_roots = engine.failed_roots();
  outcome.fused_edges = engine.fused_edges();
  outcome.spsc_edges = engine.spsc_edges();
  for (size_t i = 0; i < engine.metrics().task_count(); i++) {
    const TaskMetrics& m = engine.metrics().task(i);
    outcome.emitted[m.component()] += m.emitted();
    outcome.executed[m.component()] += m.executed();
    outcome.task_emitted.push_back(m.emitted());
    outcome.task_executed.push_back(m.executed());
  }
  if (engine.fault_plan() != nullptr) {
    outcome.site_stats = engine.fault_plan()->SiteStatsSnapshot();
    outcome.injected = engine.fault_plan()->Snapshot();
  }
  return outcome;
}

RunOutcome RunChain(int64_t tuples, bool fuse, DeliverySemantics semantics,
                    FaultSpec faults = FaultSpec{}) {
  TupleSink sink;
  TopologyEngine engine(ThreeStageChain(&sink, tuples),
                        ChainConfig(fuse, semantics, faults));
  engine.Run();
  RunOutcome outcome = Outcome(engine);
  outcome.sink_tuples = sink.Size();
  return outcome;
}

TEST(FusedEngineTest, FusedCountsMatchQueuedAtMostOnce) {
  const RunOutcome queued =
      RunChain(5000, /*fuse=*/false, DeliverySemantics::kAtMostOnce);
  const RunOutcome fused =
      RunChain(5000, /*fuse=*/true, DeliverySemantics::kAtMostOnce);

  EXPECT_EQ(queued.fused_edges, 0u);
  EXPECT_EQ(fused.fused_edges, 2u);
  EXPECT_EQ(queued.sink_tuples, 5000u);
  EXPECT_EQ(fused.sink_tuples, 5000u);
  EXPECT_EQ(fused.emitted, queued.emitted);
  EXPECT_EQ(fused.executed, queued.executed);
}

TEST(FusedEngineTest, FusedCountsMatchQueuedAtLeastOnce) {
  const RunOutcome queued =
      RunChain(3000, /*fuse=*/false, DeliverySemantics::kAtLeastOnce);
  const RunOutcome fused =
      RunChain(3000, /*fuse=*/true, DeliverySemantics::kAtLeastOnce);

  EXPECT_EQ(fused.fused_edges, 2u);
  EXPECT_EQ(queued.sink_tuples, 3000u);
  EXPECT_EQ(fused.sink_tuples, 3000u);
  EXPECT_EQ(queued.completed_roots, 3000u);
  EXPECT_EQ(fused.completed_roots, 3000u);
  EXPECT_EQ(queued.failed_roots, 0u);
  EXPECT_EQ(fused.failed_roots, 0u);
  EXPECT_EQ(fused.emitted, queued.emitted);
  EXPECT_EQ(fused.executed, queued.executed);
}

TEST(FusedEngineTest, FieldsTopologyFallsBackCleanly) {
  // An ineligible edge must fall back cleanly, not error: a fields edge
  // out of two producer tasks stays queued and results are untouched.
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(2000); });
  builder.AddBolt(
      "map", [] { return MakePassThroughBolt(); }, 2,
      {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "shard",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      4, {{"map", Grouping::Fields(0)}});
  EngineConfig config;
  config.enable_fusion = true;
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // src->map fuses (one producer task); map->shard is fan-in and queued.
  EXPECT_EQ(engine.fused_edges(), 1u);
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_NE(EdgeBetween(*engine.plan(), "map", "shard").veto.find("fields"),
            std::string::npos);
  EXPECT_EQ(sink.Size(), 2000u);
}

// -------------------------------------------- fault-schedule equality

TEST(FusedFaultScheduleTest, FusedChainDrawsIdenticalScheduleToQueued) {
  // The PR 3 contract, extended across compilation modes: with the same
  // seed, every fault site must consult its PRNG the same number of times
  // and fire the same draws whether the chain runs fused or queued.
  // (Crash and stall stay 0: a crash's blast radius is defined in terms
  // of queue batches, and fused chains have no queues to stall.)
  FaultSpec faults;
  faults.seed = 0xabcde;
  faults.drop_tuple_prob = 0.05;
  faults.duplicate_tuple_prob = 0.05;
  faults.delay_delivery_prob = 0.02;
  faults.delay_max_micros = 1;
  faults.bolt_throw_prob = 0.03;

  const RunOutcome queued =
      RunChain(1500, /*fuse=*/false, DeliverySemantics::kAtLeastOnce, faults);
  const RunOutcome fused =
      RunChain(1500, /*fuse=*/true, DeliverySemantics::kAtLeastOnce, faults);

  ASSERT_FALSE(queued.site_stats.empty());
  EXPECT_EQ(fused.site_stats, queued.site_stats);
  EXPECT_EQ(fused.injected, queued.injected);
  // Identical schedules resolve identical root fates.
  EXPECT_EQ(fused.completed_roots, queued.completed_roots);
  EXPECT_EQ(fused.failed_roots, queued.failed_roots);
}

TEST(FusedFaultScheduleTest, FusedHopsLoseAcksLikeQueuedHops) {
  // Every hop draws acker-loss after its throw draw, fused or queued; a
  // fused hop whose ack is lost poisons the chain ledger, so the root
  // fails exactly where the queued root loses an ack.
  FaultSpec faults;
  faults.seed = 0x1ac4;
  faults.bolt_throw_prob = 0.02;
  faults.acker_loss_prob = 0.05;

  const RunOutcome queued =
      RunChain(1500, /*fuse=*/false, DeliverySemantics::kAtLeastOnce, faults);
  const RunOutcome fused =
      RunChain(1500, /*fuse=*/true, DeliverySemantics::kAtLeastOnce, faults);

  ASSERT_GT(queued.injected[static_cast<size_t>(FaultKind::kAckerEventLoss)],
            0u);
  EXPECT_EQ(fused.site_stats, queued.site_stats);
  EXPECT_EQ(fused.injected, queued.injected);
  EXPECT_EQ(fused.completed_roots, queued.completed_roots);
  EXPECT_EQ(fused.failed_roots, queued.failed_roots);
}

// ----------------------------------------- fused fan-out ≡ queued fan-out

/// One count-min sketch per task of a component, owned by the test so the
/// final bytes keep every applied effect across crash restarts.
using ShardSketches = std::vector<CountMinSketch>;

/// Adds field 0 to its task's sketch and re-emits the input.
class ShardCmsBolt : public Bolt {
 public:
  explicit ShardCmsBolt(std::shared_ptr<ShardSketches> sketches)
      : sketches_(std::move(sketches)) {}
  void Prepare(uint32_t task_index, uint32_t) override { task_ = task_index; }
  void Execute(const Tuple& input, OutputCollector* collector) override {
    (*sketches_)[task_].Add(input.Str(0));
    collector->Emit(Tuple(input));
  }

 private:
  std::shared_ptr<ShardSketches> sketches_;
  uint32_t task_ = 0;
};

std::shared_ptr<ShardSketches> MakeShardSketches(size_t tasks) {
  return std::make_shared<ShardSketches>(tasks, CountMinSketch(256, 4));
}

void AddCmsBolt(TopologyBuilder& builder, const std::string& name,
                std::shared_ptr<ShardSketches> sketches,
                std::vector<Subscription> inputs) {
  const auto parallelism = static_cast<uint32_t>(sketches->size());
  builder.AddBolt(
      name,
      [sketches]() -> std::unique_ptr<Bolt> {
        return std::make_unique<ShardCmsBolt>(sketches);
      },
      parallelism, std::move(inputs));
}

/// The two fan-out shapes that only per-edge fusion runs inline: a 1->4
/// fields edge behind a fused relay, and a spout whose two arms (1->3
/// fields, 1->1 global) both fuse. With `queued_tail` the sharded arm also
/// fans in to `total`, an edge that stays queued past the fused ones. Its
/// three producer threads interleave, so which of total's inputs a fault
/// hits would depend on timing: fault runs leave it out. The third shape,
/// a 1->2 shuffle into `map` whose two tasks fan in to one `sink`, puts
/// both of sink's producer tasks on the spout's thread when fused.
enum class FanOut { kFieldsOneToMany, kTwoArmSpout, kFanInOneHead };

struct FanOutRun {
  RunOutcome outcome;
  std::vector<std::vector<uint8_t>> sketches;  // Per component, per task.
};

FanOutRun RunFanOut(FanOut shape, int64_t tuples, bool fuse,
                    const FaultSpec& faults, bool queued_tail,
                    size_t execute_batch_size = 128) {
  std::vector<std::shared_ptr<ShardSketches>> components;
  TopologyBuilder builder;
  builder.AddSpout("src", [tuples] { return MakeCountingSpout(tuples); });
  if (shape == FanOut::kFieldsOneToMany) {
    builder.AddBolt(
        "relay", [] { return MakePassThroughBolt(); }, 1,
        {{"src", Grouping::Shuffle()}});
    components.push_back(MakeShardSketches(4));
    AddCmsBolt(builder, "cm", components.back(),
               {{"relay", Grouping::Fields(0)}});
  } else if (shape == FanOut::kFanInOneHead) {
    components.push_back(MakeShardSketches(2));
    AddCmsBolt(builder, "map", components.back(),
               {{"src", Grouping::Shuffle()}});
    components.push_back(MakeShardSketches(1));
    AddCmsBolt(builder, "sink", components.back(),
               {{"map", Grouping::Global()}});
  } else {
    components.push_back(MakeShardSketches(3));
    AddCmsBolt(builder, "cm", components.back(),
               {{"src", Grouping::Fields(0)}});
    components.push_back(MakeShardSketches(1));
    AddCmsBolt(builder, "tally", components.back(),
               {{"src", Grouping::Global()}});
    if (queued_tail) {
      components.push_back(MakeShardSketches(1));
      AddCmsBolt(builder, "total", components.back(),
                 {{"cm", Grouping::Global()}});
    }
  }
  EngineConfig config =
      ChainConfig(fuse, DeliverySemantics::kAtLeastOnce, faults);
  config.ack_timeout_seconds = SanitizerScaled(0.5);
  config.execute_batch_size = execute_batch_size;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  FanOutRun run;
  run.outcome = Outcome(engine);
  for (const auto& sketches : components) {
    for (const CountMinSketch& sketch : *sketches) {
      run.sketches.push_back(state::ToBlob(sketch));
    }
  }
  return run;
}

// Fused fan-outs match their queued runs count for count and byte for
// byte. The two-arm and fan-in shapes end in a fan-in whose producer tasks
// all run on the spout's thread when fused, so that input gets a ring
// instead of the mutex queue it needs queued; the fields shape fuses
// every edge and has no queue left.
TEST(FusedFanOutTest, FusedFanOutMatchesQueued) {
  struct Case {
    FanOut shape;
    const char* name;
    size_t fused_edges;
    size_t queued_rings;
    size_t fused_rings;
  };
  const Case cases[] = {
      {FanOut::kFieldsOneToMany, "fields", 2, 5, 0},
      {FanOut::kTwoArmSpout, "two-arm", 2, 4, 1},
      {FanOut::kFanInOneHead, "fan-in-one-head", 1, 2, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const FanOutRun queued = RunFanOut(c.shape, 3000, false, FaultSpec{}, true);
    const FanOutRun fused = RunFanOut(c.shape, 3000, true, FaultSpec{}, true);
    EXPECT_EQ(queued.outcome.fused_edges, 0u);
    EXPECT_EQ(fused.outcome.fused_edges, c.fused_edges);
    EXPECT_EQ(queued.outcome.spsc_edges, c.queued_rings);
    EXPECT_EQ(fused.outcome.spsc_edges, c.fused_rings);
    EXPECT_EQ(fused.outcome.completed_roots, 3000u);
    EXPECT_EQ(fused.outcome.failed_roots, 0u);
    EXPECT_EQ(queued.outcome.completed_roots, 3000u);
    EXPECT_EQ(fused.outcome.task_emitted, queued.outcome.task_emitted);
    EXPECT_EQ(fused.outcome.task_executed, queued.outcome.task_executed);
    EXPECT_EQ(fused.sketches, queued.sketches);
  }
}

// Same seed, same draws: every fault site consults its stream the same
// number of times fused or queued, under each fault kind the hop executor
// and the wire inject. Crash runs pop one message at a time on the queued
// side, where a crash would otherwise kill the rest of a timing-dependent
// batch; the crash budget never binds.
TEST(FusedFanOutTest, FusedFanOutDrawsIdenticalFaultSchedule) {
  FaultSpec drop_dup;
  drop_dup.drop_tuple_prob = 0.04;
  drop_dup.duplicate_tuple_prob = 0.04;
  drop_dup.delay_delivery_prob = 0.02;
  drop_dup.delay_max_micros = 1;
  FaultSpec throws;
  throws.bolt_throw_prob = 0.04;
  FaultSpec crashes;
  crashes.task_crash_prob = 0.01;
  crashes.max_task_crashes = 1u << 20;
  FaultSpec ack_loss;
  ack_loss.acker_loss_prob = 0.04;
  for (const FanOut shape : {FanOut::kFieldsOneToMany, FanOut::kTwoArmSpout}) {
    for (FaultSpec faults : {drop_dup, throws, crashes, ack_loss}) {
      SCOPED_TRACE(std::string(shape == FanOut::kFieldsOneToMany ? "fields"
                                                                 : "two-arm") +
                   " crash=" + std::to_string(faults.task_crash_prob));
      faults.seed = TestSeed() ^ 0xfa0u;
      const size_t pop = faults.task_crash_prob > 0 ? 1 : 128;
      const FanOutRun queued =
          RunFanOut(shape, 1500, false, faults, false, pop);
      const FanOutRun fused = RunFanOut(shape, 1500, true, faults, false, pop);
      ASSERT_FALSE(queued.outcome.site_stats.empty());
      EXPECT_GT(std::accumulate(queued.outcome.injected.begin(),
                                queued.outcome.injected.end(), uint64_t{0}),
                0u);
      EXPECT_EQ(fused.outcome.site_stats, queued.outcome.site_stats);
      EXPECT_EQ(fused.outcome.injected, queued.outcome.injected);
      EXPECT_EQ(fused.outcome.completed_roots, queued.outcome.completed_roots);
      EXPECT_EQ(fused.outcome.failed_roots, queued.outcome.failed_roots);
      EXPECT_EQ(fused.sketches, queued.sketches);
    }
  }
}

// ------------------------------------------ batched ≡ per-tuple delivery

/// Shared between a test and every instance of its DurableCmsBolt (crash
/// restarts rebuild the bolt, not this).
struct DurableCms {
  CountMinSketch sketch{256, 4};
  std::atomic<bool> flushed{false};
  std::atomic<size_t> max_run{0};
};

/// Emits n keyed tuples, then idles once (the engine flushes everything it
/// staged), then raises `flushed` and ends. A bolt gated on `flushed`
/// first pops a queue that already holds the whole stream, so every pop
/// takes min(execute_batch_size, remaining) messages: batch boundaries no
/// longer depend on thread timing.
class FlushThenSignalSpout : public Spout {
 public:
  FlushThenSignalSpout(int64_t n, std::shared_ptr<DurableCms> shared)
      : n_(n), shared_(std::move(shared)) {}

  bool NextTuple(OutputCollector* collector) override {
    if (next_ < n_) {
      const int64_t v = next_++;
      std::string key = "k";
      key += std::to_string(v % 17);
      collector->Emit(Tuple::Of(std::move(key), v));
      return true;
    }
    if (!idled_) {
      idled_ = true;
      return true;
    }
    shared_->flushed.store(true);
    return false;
  }

 private:
  const int64_t n_;
  std::shared_ptr<DurableCms> shared_;
  int64_t next_ = 0;
  bool idled_ = false;
};

/// Count-min accumulator writing through to the test-owned sketch, so the
/// final bytes record every applied effect across crash restarts. The
/// same bolt runs batch-capable or not, waits in Prepare until the spout
/// flushed, and records the longest ExecuteBatch run it was handed.
class DurableCmsBolt : public Bolt {
 public:
  DurableCmsBolt(std::shared_ptr<DurableCms> shared, bool batch_capable)
      : shared_(std::move(shared)), batch_capable_(batch_capable) {}

  void Prepare(uint32_t, uint32_t) override {
    while (!shared_->flushed.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  void Execute(const Tuple& input, OutputCollector*) override {
    shared_->sketch.Add(input.Str(0));
  }
  bool BatchCapable() const override { return batch_capable_; }
  void ExecuteBatch(std::span<const Tuple* const> inputs,
                    OutputCollector* collector) override {
    if (inputs.size() > shared_->max_run.load()) {
      shared_->max_run.store(inputs.size());
    }
    Bolt::ExecuteBatch(inputs, collector);
  }

 private:
  std::shared_ptr<DurableCms> shared_;
  const bool batch_capable_;
};

struct DurableCmsOutcome {
  std::map<uint64_t, FaultSiteStats> site_stats;
  uint64_t completed_roots = 0;
  uint64_t failed_roots = 0;
  uint64_t crashes = 0;
  uint64_t epochs_completed = 0;
  std::vector<uint8_t> sketch;
  size_t max_run = 0;
};

constexpr int64_t kDurableCmsTuples = 4000;

DurableCmsOutcome RunDurableCms(bool batch_capable, size_t execute_batch_size,
                                DeliverySemantics semantics,
                                const FaultSpec& faults) {
  auto shared = std::make_shared<DurableCms>();
  TopologyBuilder builder;
  builder.AddSpout("src", [shared]() -> std::unique_ptr<Spout> {
    return std::make_unique<FlushThenSignalSpout>(kDurableCmsTuples, shared);
  });
  builder.AddBolt(
      "cms",
      [shared, batch_capable]() -> std::unique_ptr<Bolt> {
        return std::make_unique<DurableCmsBolt>(shared, batch_capable);
      },
      1, {{"src", Grouping::Shuffle()}});
  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = semantics;
  if (semantics == DeliverySemantics::kExactlyOnce) {
    config.checkpoint_store = &store;
    config.epoch_interval_tuples = 500;
  }
  // The gated bolt drains only after the spout finished, so the whole
  // stream must fit in flight.
  config.queue_capacity = 2 * kDurableCmsTuples;
  config.max_spout_pending = 2 * kDurableCmsTuples;
  config.execute_batch_size = execute_batch_size;
  // Queued layout: the gated Prepare waits for the spout, which a fused
  // bolt would block on its own thread.
  config.enable_fusion = false;
  // Far above the milliseconds the stream needs: only fault-hit roots
  // time out.
  config.ack_timeout_seconds = 0.5;
  config.telemetry_sample_interval_ms = 0;
  config.faults = faults;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  DurableCmsOutcome outcome;
  if (engine.fault_plan() != nullptr) {
    outcome.site_stats = engine.fault_plan()->SiteStatsSnapshot();
    outcome.crashes = engine.fault_plan()->injected(FaultKind::kTaskCrash);
  }
  outcome.completed_roots = engine.completed_roots();
  outcome.failed_roots = engine.failed_roots();
  outcome.epochs_completed = engine.epochs_completed();
  outcome.sketch = state::ToBlob(shared->sketch);
  outcome.max_run = shared->max_run.load();
  return outcome;
}

void ExpectSameOutcome(const DurableCmsOutcome& batched,
                       const DurableCmsOutcome& reference) {
  EXPECT_EQ(batched.site_stats, reference.site_stats);
  EXPECT_EQ(batched.completed_roots, reference.completed_roots);
  EXPECT_EQ(batched.failed_roots, reference.failed_roots);
  EXPECT_EQ(batched.sketch, reference.sketch);
}

TEST(FusedFaultScheduleTest, BatchedExecuteDrawsPerMessageLikeScalar) {
  // Batched delivery consults the executor site per message in the
  // per-tuple order (throw → crash → acker-loss) with the per-tuple blast
  // radius, so a batch-capable bolt fed 128-message runs matches its
  // per-tuple references draw for draw, root for root and byte for byte.
  FaultSpec faults;
  faults.seed = 0x77;
  faults.bolt_throw_prob = 0.05;
  faults.acker_loss_prob = 0.05;

  // Throws and lost acks touch only their own message, so the reference
  // may pop one message at a time.
  const DurableCmsOutcome batched =
      RunDurableCms(true, 128, DeliverySemantics::kAtLeastOnce, faults);
  const DurableCmsOutcome scalar =
      RunDurableCms(true, 1, DeliverySemantics::kAtLeastOnce, faults);
  ASSERT_FALSE(batched.site_stats.empty());
  EXPECT_GT(batched.max_run, 1u) << "the batched path never ran";
  EXPECT_GT(batched.failed_roots, 0u);
  ExpectSameOutcome(batched, scalar);

  // A crash also kills the rest of its popped input, so with task_crash
  // armed the per-tuple reference is the non-batch-capable twin at the
  // same pop size (the gated spout makes pops timing-free). The budget
  // never binds.
  faults.task_crash_prob = 0.01;
  faults.max_task_crashes = 1u << 20;
  const DurableCmsOutcome batched_crash =
      RunDurableCms(true, 128, DeliverySemantics::kAtLeastOnce, faults);
  const DurableCmsOutcome twin_crash =
      RunDurableCms(false, 128, DeliverySemantics::kAtLeastOnce, faults);
  EXPECT_GT(batched_crash.crashes, 0u) << "no crash fired";
  EXPECT_GT(batched_crash.max_run, 1u);
  EXPECT_EQ(twin_crash.max_run, 0u);
  ExpectSameOutcome(batched_crash, twin_crash);
}

TEST(FusedFaultScheduleTest, ExactlyOnceBoltsTakeBatchedRuns) {
  // Epoch barriers only split a popped batch; the data runs between them
  // reach a batch-capable bolt through ExecuteBatch, with the same final
  // state as one-message delivery.
  const DurableCmsOutcome batched =
      RunDurableCms(true, 128, DeliverySemantics::kExactlyOnce, FaultSpec{});
  const DurableCmsOutcome scalar =
      RunDurableCms(true, 1, DeliverySemantics::kExactlyOnce, FaultSpec{});
  EXPECT_GT(batched.max_run, 1u);
  EXPECT_GT(batched.epochs_completed, 0u);
  EXPECT_EQ(batched.completed_roots,
            static_cast<uint64_t>(kDurableCmsTuples));
  EXPECT_EQ(batched.failed_roots, 0u);
  EXPECT_EQ(scalar.max_run, 0u);
  EXPECT_EQ(batched.sketch, scalar.sketch);
}

// ------------------------------------------- deterministic clock timeout

TEST(ManualClockTest, AdvancesOnlyWhenDriven) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
  clock.AdvanceNanos(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  EXPECT_EQ(clock.PeekNanos(), 150u);

  ManualClock auto_clock(0, 10);
  EXPECT_EQ(auto_clock.NowNanos(), 10u);
  EXPECT_EQ(auto_clock.NowNanos(), 20u);
  EXPECT_EQ(auto_clock.PeekNanos(), 20u);
}

TEST(ManualClockTest, AlignmentTimeoutFiresDeterministically) {
  // The epoch-alignment timeout used to depend on raw wall time: a loaded
  // host could starve or spuriously trip it. With an injected ManualClock
  // the whole scenario is virtual-time-deterministic: srcB emits nothing,
  // so the sink's alignment on srcA's barriers can never complete and
  // MUST force-advance — every run, with zero real-time sleeps. Each
  // engine-internal deadline check costs 50 virtual ms, so the 2 s
  // timeout trips after ~40 checks no matter how slow the host is.
  ManualClock clock(uint64_t{1} << 30, /*advance_per_read_nanos=*/50'000'000);
  const uint64_t start = clock.PeekNanos();

  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("srcA", [] { return MakeCountingSpout(200); });
  builder.AddSpout("srcB", [] {
    return std::make_unique<GeneratorSpout>(
        []() -> std::optional<Tuple> { return std::nullopt; });
  });
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"srcA", Grouping::Global()}, {"srcB", Grouping::Global()}});

  KvCheckpointStore store;
  EngineConfig config;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 50;
  config.epoch_align_timeout_seconds = 2.0;
  config.clock = &clock;
  config.latency_sample_every = 0;  // No latency stamps off virtual time.
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(delivered->load(), 200u) << "force-advance lost data";
  EXPECT_GT(engine.epoch_timeouts(), 0u) << "virtual clock never tripped";
  // srcB never barriers, so no epoch can ever complete.
  EXPECT_EQ(engine.epochs_completed(), 0u);
  EXPECT_GT(clock.PeekNanos(), start) << "engine never read the clock";
}

}  // namespace
}  // namespace streamlib::platform
