// Chaos verification suite for the deterministic fault injector: seeded
// replay of fault schedules, at-least-once delivery under drops/dups/
// throws/crashes, exactly-once *state* via checkpoint-then-ack across an
// injected crash-restart, checkpoint restore-path edge cases, and the
// fault counters' telemetry surface.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos_util.h"
#include "common/serde.h"
#include "common/state.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/epoch.h"
#include "platform/fault.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// ------------------------------------------------------ config validation

TEST(EngineConfigValidationTest, RejectsNonPositiveAckTimeout) {
  // The timeout knob must be sane under *both* semantics — a bad value
  // must not hide behind at-most-once mode.
  for (const DeliverySemantics semantics :
       {DeliverySemantics::kAtMostOnce, DeliverySemantics::kAtLeastOnce}) {
    EngineConfig config;
    config.semantics = semantics;
    config.ack_timeout_seconds = 0.0;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = -1.5;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = std::nan("");
    EXPECT_FALSE(config.Validate().ok());
    // Its nanosecond count would overflow the acker's uint64_t.
    config.ack_timeout_seconds = 1e300;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = 5.0;
    EXPECT_TRUE(config.Validate().ok());
  }
}

TEST(EngineConfigValidationDeathTest, RunAbortsOnNonPositiveAckTimeout) {
  TopologyBuilder builder;
  builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        []() -> std::optional<Tuple> { return std::nullopt; });
  });
  EngineConfig config;
  config.ack_timeout_seconds = 0.0;
  TopologyEngine engine(builder.Build().value(), config);
  EXPECT_DEATH(engine.Run(), "ack_timeout_seconds");
}

TEST(FaultSpecValidationTest, RejectsOutOfRangeProbabilities) {
  FaultSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_FALSE(spec.Enabled());  // All-zero default: injection off.

  spec.drop_tuple_prob = 1.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = std::nan("");
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = 0.5;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_TRUE(spec.Enabled());
}

// --------------------------------------------------- deterministic replay

struct ChaosRunResult {
  std::array<uint64_t, kNumFaultKinds> injected{};
  uint64_t total_injected = 0;
  uint64_t sink_count = 0;
};

/// One at-most-once chain run (src -> relay -> sink, parallelism 1) under
/// `spec`. With one task per component every injection site is consulted a
/// deterministic number of times — no acker, no replays, no timeout races —
/// so two runs with the same spec must produce identical fault schedules.
ChaosRunResult RunAtMostOnceChain(const FaultSpec& spec, uint64_t n,
                                  ExecutionMode mode) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto sunk = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      1, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [sunk]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [sunk](const Tuple&, OutputCollector*) {
              sunk->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"relay", Grouping::Global()}});

  EngineConfig config;
  config.mode = mode;
  config.semantics = DeliverySemantics::kAtMostOnce;
  config.faults = spec;
  config.enable_fusion = false;  // Queue stalls need input queues.
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  ChaosRunResult result;
  result.injected = engine.fault_plan()->Snapshot();
  result.total_injected = engine.fault_plan()->total_injected();
  result.sink_count = sunk->load();
  return result;
}

TEST(FaultDeterminismTest, SeededReplayProducesIdenticalFaultSchedule) {
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0xfa17;
  spec.drop_tuple_prob = 0.02;
  spec.duplicate_tuple_prob = 0.02;
  spec.delay_delivery_prob = 0.005;
  spec.delay_max_micros = 30;
  spec.bolt_throw_prob = 0.01;
  spec.queue_stall_prob = 0.01;
  spec.queue_stall_micros = 30;
  // Crash injection is excluded on purpose: a crash discards the *rest of
  // the popped batch*, and batch boundaries depend on thread timing, so
  // downstream consultation counts would no longer be schedule-free.

  const ChaosRunResult a = RunAtMostOnceChain(spec, 4000,
                                              ExecutionMode::kDedicated);
  const ChaosRunResult b = RunAtMostOnceChain(spec, 4000,
                                              ExecutionMode::kDedicated);

  EXPECT_GT(a.total_injected, 0u);
  EXPECT_GT(a.injected[static_cast<size_t>(FaultKind::kDropTuple)], 0u);
  EXPECT_GT(a.injected[static_cast<size_t>(FaultKind::kDuplicateTuple)], 0u);
  EXPECT_GT(a.injected[static_cast<size_t>(FaultKind::kBoltThrow)], 0u);
  EXPECT_GT(a.injected[static_cast<size_t>(FaultKind::kQueueStall)], 0u);
  for (size_t k = 0; k < kNumFaultKinds; k++) {
    EXPECT_EQ(a.injected[k], b.injected[k])
        << FaultKindName(static_cast<FaultKind>(k));
  }
  EXPECT_EQ(a.sink_count, b.sink_count);
  // And a different seed must produce a different schedule (astronomically
  // unlikely to collide across four active sites).
  FaultSpec other = spec;
  other.seed = spec.seed + 1;
  const ChaosRunResult c = RunAtMostOnceChain(other, 4000,
                                              ExecutionMode::kDedicated);
  EXPECT_NE(a.injected, c.injected);
}

// ------------------------------------------- at-least-once under chaos mix

/// The acceptance mix: drops, duplicates, bolt throws, acker losses, and a
/// one-crash budget, against a replaying spout. Returns the per-payload
/// delivery counts observed by the (dedup-free) sink.
void RunAtLeastOnceChaos(ExecutionMode mode, uint64_t seed_salt) {
  constexpr int64_t kN = 250;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      2, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      2, {{"relay", Grouping::Fields(0)}});

  EngineConfig config;
  config.mode = mode;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.15;  // Fast replay rounds.
  config.faults.seed = TestSeed() ^ seed_salt;
  config.faults.drop_tuple_prob = 0.01;
  config.faults.duplicate_tuple_prob = 0.01;
  config.faults.bolt_throw_prob = 0.005;
  config.faults.task_crash_prob = 0.02;
  config.faults.max_task_crashes = 1;
  config.faults.acker_loss_prob = 0.005;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // Termination alone proves no root was lost forever (the spout only ends
  // the stream once every payload is acked); now check the books.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_TRUE(state->pending.empty());
  EXPECT_TRUE(state->inflight.empty());
  EXPECT_EQ(engine.completed_roots(), state->acked);
  EXPECT_EQ(engine.failed_roots(), state->failed);
  // Every payload reached the sink at least once; with injected drops and
  // replays the total can exceed kN but can never fall short.
  EXPECT_GE(delivered->load(), static_cast<uint64_t>(kN));
  EXPECT_GT(engine.fault_plan()->total_injected(), 0u);
}

TEST(ChaosMixTest, AtLeastOnceNeverLosesRootsDedicated) {
  RunAtLeastOnceChaos(ExecutionMode::kDedicated, 0xa110);
}

TEST(ChaosMixTest, AtLeastOnceNeverLosesRootsMultiplexed) {
  RunAtLeastOnceChaos(ExecutionMode::kMultiplexed, 0xa111);
}

TEST(ChaosMixTest, AtMostOnceChaosTerminatesAndNeverDoubleCounts) {
  // At-most-once under a no-duplication mix: faults may lose tuples but
  // the engine must drain cleanly and the sink must never see a tuple
  // twice (count bounded above by emissions, below by emissions minus
  // everything droppable).
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0xa105;
  spec.drop_tuple_prob = 0.05;
  spec.bolt_throw_prob = 0.02;
  spec.queue_stall_prob = 0.01;
  spec.queue_stall_micros = 50;
  spec.task_crash_prob = 0.01;
  spec.max_task_crashes = 2;
  for (const ExecutionMode mode :
       {ExecutionMode::kDedicated, ExecutionMode::kMultiplexed}) {
    const ChaosRunResult r = RunAtMostOnceChain(spec, 4000, mode);
    EXPECT_LE(r.sink_count, 4000u);
    EXPECT_GT(r.total_injected, 0u);
  }
}

// ----------------------------------- exactly-once state across a crash

TEST(CrashRestoreTest, CheckpointRestoreReproducesExactOperatorState) {
  // src -> count(1 task, checkpoint-then-ack + dedup). The injected crash
  // fires between an Execute (state already checkpointed) and its ack —
  // the torn window — so the root replays into restored state and the
  // ledger must absorb the redelivery. Ground truth: every payload counted
  // exactly once, crash or no crash, duplicates or not.
  constexpr int64_t kN = 200;
  auto state = std::make_shared<ReplayState>(kN);
  KvCheckpointStore store;

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "count",
      [&store]() -> std::unique_ptr<Bolt> {
        return std::make_unique<CheckpointedCountBolt>(&store, "count");
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.15;
  config.faults.seed = TestSeed() ^ 0xc4a5;
  config.faults.duplicate_tuple_prob = 0.02;
  config.faults.task_crash_prob = 0.1;
  config.faults.max_task_crashes = 1;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // The crash all but surely fired (p_miss = 0.9^200 ~ 7e-10); assert so
  // the test can't silently pass without exercising restore.
  ASSERT_EQ(engine.fault_plan()->injected(FaultKind::kTaskCrash), 1u);
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));

  // The store's final checkpoint *is* the operator state an independent
  // restore would see; decode it and compare against ground truth.
  Result<std::vector<uint8_t>> bytes = store.Fetch("count:0");
  ASSERT_TRUE(bytes.ok());
  const auto counts = CheckpointedCountBolt::DecodeCounts(bytes.value());
  ASSERT_EQ(counts.size(), static_cast<size_t>(kN));
  for (int64_t i = 0; i < kN; i++) {
    auto it = counts.find(i);
    ASSERT_NE(it, counts.end()) << "payload " << i << " lost";
    EXPECT_EQ(it->second, 1u) << "payload " << i << " double-counted";
  }
}

// ------------------------- batched updates vs snapshots under chaos

TEST(CrashRestoreTest, BatchedSketchSnapshotsStayConsistentUnderChaos) {
  // src -> SketchBolt<CountMinSketch> carrying a batched update fn and a
  // small-cadence SketchCheckpoint. The engine's batched path applies each
  // run via AddHashBatch; the checkpoint threshold is evaluated only AFTER
  // a batched call returns, so every blob the store sees is a
  // between-calls sketch — and the injected mid-run crash must restore
  // from such a blob and finish the stream. Duplicates and drops
  // run alongside to interleave replays with the batch/snapshot cadence.
  constexpr int64_t kN = 400;
  auto state = std::make_shared<ReplayState>(kN);
  KvCheckpointStore store;

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "cms",
      [&store]() -> std::unique_ptr<Bolt> {
        SketchCheckpoint checkpoint;
        checkpoint.store = &store;
        checkpoint.key_prefix = "cms";
        checkpoint.every = 32;  // Many snapshots interleaved with batches.
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(512, 4),
            [](CountMinSketch& sketch, const Tuple& t) {
              sketch.Add(static_cast<uint64_t>(t.Int(0)));
            },
            FieldKeyBatchUpdate<CountMinSketch>(0), checkpoint);
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.15;
  config.faults.seed = TestSeed() ^ 0xbeef;
  config.faults.drop_tuple_prob = 0.01;
  config.faults.duplicate_tuple_prob = 0.02;
  // The batched path draws one crash decision per message, like per-tuple
  // delivery; with a budget of one, 0.5 makes the crash land early.
  config.faults.task_crash_prob = 0.5;
  config.faults.max_task_crashes = 1;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // The crash all but surely fired; without it the restore path under the
  // fused batch cadence goes untested.
  ASSERT_EQ(engine.fault_plan()->injected(FaultKind::kTaskCrash), 1u);
  // At-least-once: every payload eventually acked despite the crash
  // swallowing its message's ack and discarding the rest of the popped
  // input.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));

  // The final checkpoint must be a decodable v2 SketchBlob — the exact
  // bytes an independent restart would restore.
  Result<std::vector<uint8_t>> bytes = store.Fetch("cms:0");
  ASSERT_TRUE(bytes.ok());
  Result<CountMinSketch> restored =
      state::FromBlob<CountMinSketch>(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Sketch-checkpoint semantics: updates between the last Put and the
  // crash are lost, replays may double-add — the count is approximate but
  // must stay within the only-bounded-staleness envelope: nonzero, and no
  // more than one full delivery per payload plus injected duplicates.
  const uint64_t total = restored.value().total_count();
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, static_cast<uint64_t>(kN) + state->emitted);
}

// -------------------------------------------- ack-timeout replay (no dup)

TEST(AckTimeoutReplayTest, DroppedTupleFailsThenReplaysToFullAck) {
  // Drops only: a root whose delivery was dropped can resolve only via
  // ack-timeout -> OnFail -> spout re-emission. Termination requires that
  // whole path to work.
  constexpr int64_t kN = 100;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = SanitizerScaled(0.1);
  config.faults.seed = TestSeed() ^ 0xd409;
  config.faults.drop_tuple_prob = 0.05;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  const uint64_t drops =
      engine.fault_plan()->injected(FaultKind::kDropTuple);
  EXPECT_GT(drops, 0u);          // The fault actually fired...
  EXPECT_GT(state->failed, 0u);  // ...and OnFail replay was exercised.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_EQ(delivered->load(), static_cast<uint64_t>(kN));
  EXPECT_EQ(engine.failed_roots(), state->failed);
}

// One emission broadcast to every task of a bolt, every delivery dropped:
// the root can only fail. The first ids a run allocates must not XOR to
// zero (1 ^ 2 ^ 3 == 0), or the kInit alone acks the 3-task fan-out with
// nothing executed.
TEST(AckLedgerTest, FullyDroppedBroadcastFailsItsRoot) {
  for (uint32_t parallelism : {3u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    auto executed = std::make_shared<std::atomic<uint64_t>>(0);
    TopologyBuilder builder;
    builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
      return std::make_unique<GeneratorSpout>(
          [sent = false]() mutable -> std::optional<Tuple> {
            if (sent) return std::nullopt;
            sent = true;
            return Tuple::Of(int64_t{7});
          });
    });
    builder.AddBolt(
        "fan",
        [executed]() -> std::unique_ptr<Bolt> {
          return std::make_unique<FunctionBolt>(
              [executed](const Tuple&, OutputCollector*) {
                executed->fetch_add(1, std::memory_order_relaxed);
              });
        },
        parallelism, {{"src", Grouping::Broadcast()}});

    EngineConfig config;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.ack_timeout_seconds = 0.05;
    config.telemetry_sample_interval_ms = 0;
    config.faults.drop_tuple_prob = 1.0;
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    EXPECT_EQ(engine.fault_plan()->injected(FaultKind::kDropTuple),
              parallelism);
    EXPECT_EQ(executed->load(), 0u);
    EXPECT_EQ(engine.completed_roots(), 0u);
    EXPECT_EQ(engine.failed_roots(), 1u);
  }
}

// ----------------------------------------- checkpoint restore edge cases

TEST(CheckpointRestoreEdgeTest, EmptyStoreRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "empty_ckpt.bin";
  KvCheckpointStore empty;
  ASSERT_TRUE(empty.SaveToFile(path).ok());
  KvCheckpointStore restored;
  restored.Put("stale", {1, 2, 3});  // Load must replace, not merge.
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.NumKeys(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, PopulatedStoreRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "full_ckpt.bin";
  KvCheckpointStore store;
  store.Put("a", {1, 2, 3});
  store.Put("a", {4, 5});  // Version 2 — versions must survive the trip.
  store.Put("b", {});      // Empty state is valid state.
  ASSERT_TRUE(store.SaveToFile(path).ok());

  KvCheckpointStore restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.NumKeys(), 2u);
  EXPECT_EQ(restored.Get("a").value(), (std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(restored.VersionOf("a"), 2u);
  EXPECT_EQ(restored.Get("b").value(), std::vector<uint8_t>{});
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, TornFileIsRejectedAndStoreUntouched) {
  const std::string path = ::testing::TempDir() + "torn_ckpt.bin";
  KvCheckpointStore store;
  std::vector<uint8_t> blob(64);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<uint8_t>(i);
  }
  store.Put("state", blob);
  ASSERT_TRUE(store.SaveToFile(path).ok());

  // Truncate at every prefix length; no prefix except the full file may
  // load, and a failed load must leave existing contents intact.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> full;
  uint8_t buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    full.insert(full.end(), buf, buf + n);
  }
  std::fclose(f);

  const std::string torn = ::testing::TempDir() + "torn_ckpt_cut.bin";
  for (size_t cut = 0; cut < full.size(); cut += 7) {
    std::FILE* out = std::fopen(torn.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(full.data(), 1, cut, out);
    std::fclose(out);
    KvCheckpointStore victim;
    victim.Put("keep", {9});
    EXPECT_FALSE(victim.LoadFromFile(torn).ok()) << "cut=" << cut;
    EXPECT_EQ(victim.Get("keep").value(), std::vector<uint8_t>{9})
        << "failed load must not clobber the store (cut=" << cut << ")";
  }
  std::remove(torn.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, GarbageAndMissingFiles) {
  KvCheckpointStore store;
  EXPECT_EQ(store.LoadFromFile("/nonexistent/dir/ckpt.bin").code(),
            StatusCode::kNotFound);

  const std::string path = ::testing::TempDir() + "garbage_ckpt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a checkpoint file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(store.LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, RenamedComponentRestoreIsCleanError) {
  // A bolt renamed between checkpoint and restore must get a diagnosable
  // NotFound (and start empty), never someone else's state or UB.
  KvCheckpointStore store;
  store.Put("old_name:0", {1, 2, 3});
  const Result<std::vector<uint8_t>> result = store.Fetch("new_name:0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().ToString().find("new_name:0"),
            std::string::npos);  // The message names the missing key.

  // The bolt-level behaviour: restore under the wrong name starts empty.
  CheckpointedCountBolt bolt(&store, "new_name");
  bolt.Prepare(0, 1);
  EXPECT_TRUE(bolt.counts().empty());
}

TEST(CheckpointRestoreEdgeTest, TruncatedDedupLedgerBytesAreRejected) {
  DedupLedger ledger;
  for (uint64_t seq : {5u, 7u, 9u}) {
    ASSERT_TRUE(ledger.CheckAndRecord(1, seq));
  }
  const std::vector<uint8_t> good = ledger.Serialize();
  for (size_t cut = 0; cut + 1 < good.size(); cut += 3) {
    const std::vector<uint8_t> torn(good.begin(), good.begin() + cut);
    EXPECT_FALSE(DedupLedger::Deserialize(torn).ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(DedupLedger::Deserialize(good).ok());

  // Forged counts far beyond the bytes present are rejected up front, not
  // looped over or reserved: a huge id count...
  ByteWriter huge_ids;
  huge_ids.PutVarint(1);
  huge_ids.PutU64(1);
  huge_ids.PutU64(0);
  huge_ids.PutVarint(uint64_t{1} << 60);
  huge_ids.PutU64(5);
  Result<DedupLedger> forged = DedupLedger::Deserialize(huge_ids.TakeBytes());
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(forged.status().ToString().find("id count"), std::string::npos)
      << forged.status().ToString();
  // ...and a huge producer count.
  ByteWriter huge_producers;
  huge_producers.PutVarint(uint64_t{1} << 50);
  huge_producers.PutU64(1);
  huge_producers.PutU64(0);
  huge_producers.PutVarint(0);
  forged = DedupLedger::Deserialize(huge_producers.TakeBytes());
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(forged.status().ToString().find("producer count"),
            std::string::npos)
      << forged.status().ToString();
  // A producer listed twice is not a frame any ledger writes.
  ByteWriter twice;
  twice.PutVarint(2);
  for (int i = 0; i < 2; i++) {
    twice.PutU64(1);
    twice.PutU64(0);
    twice.PutVarint(0);
  }
  forged = DedupLedger::Deserialize(twice.TakeBytes());
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kCorruption);
}

/// The ledger as it was before ids were kept sorted: a watermark plus an
/// unordered_set per producer, serialized in hash-iteration order. Frames
/// it wrote are still in checkpoint stores and must keep restoring.
class HashOrderLedger {
 public:
  bool CheckAndRecord(uint64_t producer, uint64_t sequence) {
    Producer& p = producers_[producer];
    if (sequence < p.watermark || !p.seen.insert(sequence).second) {
      return false;
    }
    while (p.seen.erase(p.watermark) != 0) p.watermark++;
    return true;
  }

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    w.PutVarint(producers_.size());
    for (const auto& [producer, p] : producers_) {
      w.PutU64(producer);
      w.PutU64(p.watermark);
      w.PutVarint(p.seen.size());
      for (uint64_t id : p.seen) w.PutU64(id);
    }
    return w.TakeBytes();
  }

 private:
  struct Producer {
    uint64_t watermark = 0;
    std::unordered_set<uint64_t> seen;
  };
  std::unordered_map<uint64_t, Producer> producers_;
};

TEST(CheckpointRestoreEdgeTest, HashOrderLedgerFrameRestoresAndDeduplicates) {
  // Three producers with sparse, out-of-order ids, recorded by the legacy
  // hash-set ledger and by the current one from the same stream.
  std::mt19937_64 rng(TestSeed() ^ 0x1e9a);
  HashOrderLedger legacy;
  DedupLedger current;
  constexpr uint64_t kMaxId = 2000;
  for (int i = 0; i < 3000; i++) {
    const uint64_t producer = rng() % 3;
    const uint64_t id = rng() % kMaxId;
    ASSERT_EQ(current.CheckAndRecord(producer, id),
              legacy.CheckAndRecord(producer, id));
  }
  const std::vector<uint8_t> legacy_bytes = legacy.Serialize();
  const std::vector<uint8_t> canonical = current.Serialize();
  // Same length, different order: the restore must do the sorting.
  ASSERT_EQ(legacy_bytes.size(), canonical.size());
  ASSERT_NE(legacy_bytes, canonical);

  Result<DedupLedger> restored = DedupLedger::Deserialize(legacy_bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Serialize(), canonical);
  EXPECT_EQ(restored.value().RetainedIds(), current.RetainedIds());
  for (uint64_t producer = 0; producer < 4; producer++) {
    for (uint64_t id = 0; id < kMaxId + 10; id++) {
      const bool expected = legacy.CheckAndRecord(producer, id);
      ASSERT_EQ(restored.value().CheckAndRecord(producer, id), expected)
          << "producer " << producer << " id " << id;
      ASSERT_EQ(current.CheckAndRecord(producer, id), expected);
    }
  }
}

TEST(CheckpointRestoreEdgeTest, DedupLedgerRestoreCanonicalizesIds) {
  // Duplicates, ids below the watermark and ids that continue it: the
  // restored ledger drops the first two and absorbs the third.
  ByteWriter w;
  w.PutVarint(1);
  w.PutU64(4);   // producer
  w.PutU64(10);  // watermark
  w.PutVarint(6);
  for (uint64_t id : {15u, 3u, 11u, 10u, 15u, 20u}) w.PutU64(id);
  Result<DedupLedger> restored = DedupLedger::Deserialize(w.TakeBytes());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  DedupLedger& ledger = restored.value();
  EXPECT_EQ(ledger.RetainedIds(), 2u);  // 15 and 20; watermark now 12.
  for (uint64_t id : {3u, 10u, 11u, 15u, 20u}) {
    EXPECT_FALSE(ledger.CheckAndRecord(4, id)) << id;
  }
  for (uint64_t id : {12u, 13u, 14u, 16u, 21u}) {
    EXPECT_TRUE(ledger.CheckAndRecord(4, id)) << id;
  }
}

// ------------------------------------------------------ telemetry surface

TEST(FaultTelemetryTest, InjectedCountersSurfaceInReportAndJson) {
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0x7e1e;
  spec.drop_tuple_prob = 0.05;
  spec.duplicate_tuple_prob = 0.05;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 2000) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "sink",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple&, OutputCollector*) {});
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.faults = spec;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  const FaultPlan* plan = engine.fault_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->total_injected(), 0u);

  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_TRUE(report.faults.enabled);
  EXPECT_EQ(report.faults.seed, spec.seed);
  EXPECT_EQ(report.faults.total_injected, plan->total_injected());
  EXPECT_EQ(report.faults.by_kind, plan->Snapshot());
  // Per-task counters roll up to the engine-wide total: every injected
  // fault is attributed to exactly one task.
  uint64_t per_task_sum = 0;
  for (const TelemetryReport::TaskRow& row : report.tasks) {
    per_task_sum += row.faults_injected;
  }
  EXPECT_EQ(per_task_sum, plan->total_injected());

  std::ostringstream json;
  report.WriteJson(json);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"fault_injection\""), std::string::npos);
  EXPECT_NE(doc.find("\"drop_tuple\""), std::string::npos);
  EXPECT_NE(doc.find("\"faults_injected\""), std::string::npos);
}

TEST(FaultTelemetryTest, DisabledInjectionReportsDisabled) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          if (counter->fetch_add(1) >= 100) return std::nullopt;
          return Tuple::Of(int64_t{1});
        });
  });
  TopologyEngine engine(builder.Build().value(), EngineConfig{});
  engine.Run();
  EXPECT_EQ(engine.fault_plan(), nullptr);
  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_FALSE(report.faults.enabled);
  EXPECT_EQ(report.faults.total_injected, 0u);
}

// --------------------------------------- barrier faults (epoch protocol)

TEST(BarrierFaultTest, DroppedAndDelayedBarriersNeverWedgeDelivery) {
  // Barriers themselves are a fault target: a dropped marker starves one
  // consumer's alignment until the epoch_align_timeout force-advance kicks
  // in, a delayed one jitters alignment order. Neither may wedge the data
  // plane or corrupt at-least-once delivery — epochs that lose a barrier
  // simply never complete and checkpointing retries at the next epoch.
  constexpr int64_t kN = 240;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      2, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"relay", Grouping::Global()}});

  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 16;
  config.ack_timeout_seconds = 0.15;
  config.epoch_align_timeout_seconds = 0.1;  // Fast force-advance rounds.
  config.faults.seed = TestSeed() ^ 0xbab1;
  config.faults.barrier_drop_prob = 0.25;
  config.faults.barrier_delay_prob = 0.2;
  config.faults.barrier_delay_max_micros = 100;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // Termination + full ack: barrier chaos never blocked or lost payloads.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_TRUE(state->pending.empty());
  EXPECT_TRUE(state->inflight.empty());
  EXPECT_GE(delivered->load(), static_cast<uint64_t>(kN));

  // Both barrier fault kinds actually fired (0.25/0.2 over ~15 epochs x 3
  // barrier deliveries makes either vanishingly unlikely to stay at zero).
  const std::array<uint64_t, kNumFaultKinds> injected =
      engine.fault_plan()->Snapshot();
  EXPECT_GT(injected[static_cast<size_t>(FaultKind::kBarrierDrop)], 0u);
  EXPECT_GT(injected[static_cast<size_t>(FaultKind::kBarrierDelay)], 0u);

  // The durable pointer agrees with the coordinator's view, and any epoch
  // it names has a complete manifest.
  EXPECT_EQ(LastCompleteEpoch(store), engine.last_complete_epoch());
  if (engine.last_complete_epoch() > 0) {
    EXPECT_TRUE(
        store.Get(EpochCompleteKey(engine.last_complete_epoch())).has_value());
  }
}

TEST(BarrierFaultTest, AlignmentTimesOutOnSkewThenRetriesToCompletion) {
  // A deterministic alignment stall, no randomness. srcA paces steadily
  // (~0.5ms/tuple => a barrier every ~8ms); srcB sleeps 3ms per tuple for
  // its first 16 tuples (~48ms), then free-runs. The sink holds srcA's
  // post-barrier data from ~8ms on, so its 30ms hold clock must expire
  // before srcB's first barrier (~48ms): force-advance => epoch_timeouts
  // > 0, and the skipped epochs never complete. Then srcB overtakes the
  // still-pacing srcA and alignment succeeds again for later epochs —
  // the protocol retries rather than wedging, and no data is lost.
  static constexpr int64_t kPerSpout = 400;
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
  auto MakeCountdownSpout = [](bool slow_start) {
    auto remaining = std::make_shared<std::atomic<int64_t>>(kPerSpout);
    return [remaining, slow_start]() -> std::unique_ptr<Spout> {
      return std::make_unique<GeneratorSpout>(
          [remaining, slow_start]() -> std::optional<Tuple> {
            const int64_t left = remaining->fetch_sub(1);
            if (left <= 0) return std::nullopt;
            if (slow_start) {
              if (left > kPerSpout - 16) {
                std::this_thread::sleep_for(std::chrono::milliseconds(3));
              }
            } else {
              std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
            return Tuple::Of(int64_t{kPerSpout - left});
          });
    };
  };

  TopologyBuilder builder;
  builder.AddSpout("srcA", MakeCountdownSpout(false));
  builder.AddSpout("srcB", MakeCountdownSpout(true));
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
  config.epoch_interval_tuples = 16;
  config.epoch_align_timeout_seconds = 0.03;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(delivered->load(), static_cast<uint64_t>(2 * kPerSpout));
  EXPECT_GT(engine.epoch_timeouts(), 0u) << "skew never tripped the hold";
  EXPECT_GT(engine.epochs_completed(), 0u) << "alignment never recovered";
  EXPECT_EQ(LastCompleteEpoch(store), engine.last_complete_epoch());
}

}  // namespace
}  // namespace streamlib::platform
