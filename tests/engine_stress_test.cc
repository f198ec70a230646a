// Randomized stress tests for the topology engine: random topology shapes,
// parallelism, groupings, modes and semantics — the invariant under test is
// tuple conservation (every spout emission is processed exactly the
// declared number of times) and clean shutdown, across dozens of engine
// lifecycles in one process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos_util.h"
#include "common/random.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

struct StressResult {
  uint64_t emitted;
  uint64_t sink_count;
  uint64_t expected_multiplier;  // Broadcast fan-out product.
};

// Builds spout -> [stage1 (xP1)] -> [stage2 (xP2)] -> counting sink, with
// random groupings; returns observed vs expected delivery counts.
StressResult RunRandomTopology(uint64_t seed, uint64_t n_tuples) {
  Rng rng(seed);
  const uint32_t p1 = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  const uint32_t p2 = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  const int g1 = static_cast<int>(rng.NextBounded(4));
  const int g2 = static_cast<int>(rng.NextBounded(4));
  auto grouping = [](int which, uint32_t targets) -> Grouping {
    switch (which) {
      case 0:
        return Grouping::Shuffle();
      case 1:
        return Grouping::Fields(0);
      case 2:
        return Grouping::Global();
      default:
        return targets > 0 ? Grouping::Broadcast() : Grouping::Shuffle();
    }
  };

  uint64_t multiplier = 1;
  if (g1 == 3) multiplier *= p1;
  if (g2 == 3) multiplier *= p2;

  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout(
      "src",
      [counter, n_tuples]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter, n_tuples]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= n_tuples) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
      },
      1 + static_cast<uint32_t>(seed % 2));
  builder.AddBolt(
      "stage1",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) { out->Emit(in); });
      },
      p1, {{"src", grouping(g1, p1)}});
  builder.AddBolt(
      "stage2",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1);
            });
      },
      p2, {{"stage1", grouping(g2, p2)}});

  EngineConfig config;
  config.mode = (seed % 3 == 0) ? ExecutionMode::kMultiplexed
                                : ExecutionMode::kDedicated;
  config.multiplexed_threads = 1 + static_cast<uint32_t>(seed % 4);
  config.queue_capacity = 32 + static_cast<size_t>(rng.NextBounded(512));
  config.semantics = (seed % 5 == 0) ? DeliverySemantics::kAtLeastOnce
                                     : DeliverySemantics::kAtMostOnce;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  StressResult result;
  result.emitted = n_tuples;
  result.sink_count = delivered->load();
  result.expected_multiplier = multiplier;
  return result;
}

TEST(EngineStressTest, TupleConservationAcrossRandomTopologies) {
  for (uint64_t k = 1; k <= 30; k++) {
    const uint64_t seed = TestSeed() ^ k;
    const StressResult r = RunRandomTopology(seed, 3000);
    EXPECT_EQ(r.sink_count, r.emitted * r.expected_multiplier)
        << "case " << k << " seed " << seed;
  }
}

TEST(EngineStressTest, DeepPipelineUnderTinyQueues) {
  // 5 stages with 8-slot queues: heavy backpressure, must still conserve.
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t kN = 20000;

  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= kN) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  std::string prev = "src";
  for (int stage = 0; stage < 4; stage++) {
    std::string name("s");
    name += std::to_string(stage);
    builder.AddBolt(
        name,
        []() -> std::unique_ptr<Bolt> {
          return std::make_unique<FunctionBolt>(
              [](const Tuple& in, OutputCollector* out) { out->Emit(in); });
        },
        2, {{prev, Grouping::Shuffle()}});
    prev = name;
  }
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1);
            });
      },
      1, {{prev, Grouping::Shuffle()}});

  EngineConfig config;
  config.queue_capacity = 8;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  EXPECT_EQ(delivered->load(), kN);
}

TEST(EngineStressTest, AtLeastOnceUnderRandomSlowness) {
  // Random execution delays below the ack timeout: everything must still
  // complete exactly (no spurious failures, no hangs).
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t kN = 2000;

  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= kN) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "jitter",
      []() -> std::unique_ptr<Bolt> {
        auto rng = std::make_shared<Rng>(TestSeed() ^ 77);
        return std::make_unique<FunctionBolt>(
            [rng](const Tuple& in, OutputCollector* out) {
              if (rng->NextBool(0.01)) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    rng->NextBounded(2000)));
              }
              out->Emit(in);
            });
      },
      3, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "end",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple&, OutputCollector*) {});
      },
      2, {{"jitter", Grouping::Fields(0)}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 5.0;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  EXPECT_EQ(engine.completed_roots(), kN);
  EXPECT_EQ(engine.failed_roots(), 0u);
}

TEST(OperatorIntegrationTest, AggregateAndJoinPipelineThroughEngine) {
  // spout -> filter (drop odds) -> enrich (region lookup) -> tumbling
  // aggregate by region -> sink: the paper's operator chain, end to end on
  // the engine with parallelism and fields grouping.
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto sink = std::make_shared<TupleSink>();
  const uint64_t kN = 12000;

  TopologyBuilder builder;
  builder.AddSpout("events", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= kN) return std::nullopt;
          std::string city("city");
          city += std::to_string(i % 4);
          return Tuple::Of(std::move(city), static_cast<double>(i % 10),
                           static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "evens",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FilterBolt>(
            [](const Tuple& t) { return t.Int(2) % 2 == 0; });
      },
      2, {{"events", Grouping::Shuffle()}});
  builder.AddBolt(
      "enrich",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<EnrichBolt>(
            std::unordered_map<std::string, Value>{
                {"city0", Value{std::string("east")}},
                {"city1", Value{std::string("east")}},
                {"city2", Value{std::string("west")}},
                {"city3", Value{std::string("west")}},
            },
            /*key_index=*/0, Value{std::string("unknown")});
      },
      2, {{"evens", Grouping::Shuffle()}});
  builder.AddBolt(
      "rekey",
      []() -> std::unique_ptr<Bolt> {
        // Project to (region, value) for the aggregator.
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) {
              out->Emit(Tuple::Of(in.Str(3), in.Double(1)));
            });
      },
      2, {{"enrich", Grouping::Shuffle()}});
  builder.AddBolt(
      "aggregate",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<TumblingAggregateBolt>(1000000);  // Finish-only.
      },
      2, {{"rekey", Grouping::Fields(0)}});
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink.get());
      },
      1, {{"aggregate", Grouping::Global()}});

  TopologyEngine engine(builder.Build().value(), EngineConfig{});
  engine.Run();

  // Ground truth: even i only; region east = cities 0,1; value = i % 10.
  double expected_east = 0;
  double expected_west = 0;
  uint64_t expected_east_n = 0;
  uint64_t expected_west_n = 0;
  for (uint64_t i = 0; i < kN; i += 2) {
    const double v = static_cast<double>(i % 10);
    if (i % 4 <= 1) {
      expected_east += v;
      expected_east_n++;
    } else {
      expected_west += v;
      expected_west_n++;
    }
  }
  std::map<std::string, std::pair<double, int64_t>> got;
  for (const Tuple& t : sink->Snapshot()) {
    got[t.Str(0)].first += t.Double(1);
    got[t.Str(0)].second += t.Int(2);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got["east"].first, expected_east);
  EXPECT_DOUBLE_EQ(got["west"].first, expected_west);
  EXPECT_EQ(static_cast<uint64_t>(got["east"].second), expected_east_n);
  EXPECT_EQ(static_cast<uint64_t>(got["west"].second), expected_west_n);
}

// At-least-once accounting must be exact under transport batching: every
// spout-emitted root resolves as completed (none failed, none lost) even
// though tuples and acker events now travel in batches.
void RunAtLeastOnceAccounting(ExecutionMode mode) {
  constexpr uint64_t kN = 50000;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout(
      "src",
      [counter]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= kN) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
      },
      1);
  builder.AddBolt(
      "work",
      [executed]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [executed](const Tuple&, OutputCollector*) {
              executed->fetch_add(1, std::memory_order_relaxed);
            });
      },
      4, {{"src", Grouping::Shuffle()}});

  EngineConfig config;
  config.mode = mode;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(engine.completed_roots(), kN);
  EXPECT_EQ(engine.failed_roots(), 0u);
  EXPECT_EQ(executed->load(), kN);
}

TEST(EngineBatchingTest, AtLeastOnceAccountingExactDedicated) {
  RunAtLeastOnceAccounting(ExecutionMode::kDedicated);
}

TEST(EngineBatchingTest, AtLeastOnceAccountingExactMultiplexed) {
  RunAtLeastOnceAccounting(ExecutionMode::kMultiplexed);
}

// A single-producer chain in dedicated mode must select the SPSC ring for
// every bolt input and still conserve tuples exactly; with the ring
// disabled the same topology runs on BlockingQueues with identical counts.
TEST(EngineBatchingTest, SpscChainConservesTuples) {
  for (const bool enable_spsc : {true, false}) {
    constexpr uint64_t kN = 100000;
    auto counter = std::make_shared<std::atomic<uint64_t>>(0);
    auto sunk = std::make_shared<std::atomic<uint64_t>>(0);
    TopologyBuilder builder;
    builder.AddSpout(
        "src",
        [counter]() -> std::unique_ptr<Spout> {
          return std::make_unique<GeneratorSpout>(
              [counter]() -> std::optional<Tuple> {
                const uint64_t i = counter->fetch_add(1);
                if (i >= kN) return std::nullopt;
                return Tuple::Of(static_cast<int64_t>(i));
              });
        },
        1);
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
    config.mode = ExecutionMode::kDedicated;
    config.enable_spsc = enable_spsc;
    config.enable_fusion = false;  // The rings under test are queued edges.
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    EXPECT_EQ(engine.spsc_edges(), enable_spsc ? 2u : 0u);
    EXPECT_EQ(sunk->load(), kN) << "enable_spsc=" << enable_spsc;
  }
}

// ------------------------------------------------------------ chaos sweep
//
// Fault-mix sweep across the engine's two architectural axes (delivery
// semantics × executor mode): the delivery contract must hold in every
// cell. At-least-once cells use a replaying spout, so termination itself
// proves no root is ever lost; at-most-once cells may lose tuples to
// faults but must drain cleanly and never deliver a tuple twice (their
// mixes exclude duplication — the one fault whose whole point is double
// delivery).

struct FaultMix {
  const char* name;
  FaultSpec spec;  // seed is filled in per cell.
};

std::vector<FaultMix> ChaosSweepMixes() {
  std::vector<FaultMix> mixes;
  {
    FaultMix transport{"transport", {}};
    transport.spec.drop_tuple_prob = 0.02;
    transport.spec.delay_delivery_prob = 0.01;
    transport.spec.delay_max_micros = 30;
    mixes.push_back(transport);
  }
  {
    FaultMix executor{"executor", {}};
    executor.spec.bolt_throw_prob = 0.01;
    executor.spec.task_crash_prob = 0.02;
    executor.spec.max_task_crashes = 1;
    mixes.push_back(executor);
  }
  {
    FaultMix queueing{"queueing", {}};
    queueing.spec.queue_stall_prob = 0.02;
    queueing.spec.queue_stall_micros = 40;
    queueing.spec.acker_loss_prob = 0.01;
    mixes.push_back(queueing);
  }
  return mixes;
}

TEST(EngineChaosSweepTest, AtLeastOnceHoldsAcrossModeAndFaultMix) {
  constexpr int64_t kN = 150;
  uint64_t salt = 0;
  for (const ExecutionMode mode :
       {ExecutionMode::kDedicated, ExecutionMode::kMultiplexed}) {
    for (FaultMix mix : ChaosSweepMixes()) {
      salt++;
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
          2, {{"relay", Grouping::Shuffle()}});

      EngineConfig config;
      config.mode = mode;
      config.semantics = DeliverySemantics::kAtLeastOnce;
      config.ack_timeout_seconds = 0.15;
      config.faults = mix.spec;
      config.faults.duplicate_tuple_prob = 0.01;  // Dups are fine here.
      config.faults.seed = TestSeed() ^ (0xca05 + salt);
      TopologyEngine engine(builder.Build().value(), config);
      engine.Run();

      const std::string cell =
          std::string(mix.name) + "/" +
          (mode == ExecutionMode::kDedicated ? "dedicated" : "multiplexed");
      EXPECT_EQ(state->acked, static_cast<uint64_t>(kN)) << cell;
      EXPECT_TRUE(state->inflight.empty()) << cell;
      EXPECT_GE(delivered->load(), static_cast<uint64_t>(kN)) << cell;
      EXPECT_EQ(engine.completed_roots(), static_cast<uint64_t>(kN)) << cell;
    }
  }
}

TEST(EngineChaosSweepTest, AtMostOnceDrainsCleanlyAcrossModeAndFaultMix) {
  constexpr uint64_t kN = 1500;
  uint64_t salt = 0;
  for (const ExecutionMode mode :
       {ExecutionMode::kDedicated, ExecutionMode::kMultiplexed}) {
    for (FaultMix mix : ChaosSweepMixes()) {
      salt++;
      auto counter = std::make_shared<std::atomic<uint64_t>>(0);
      auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
      TopologyBuilder builder;
      builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= kN) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
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
          2, {{"relay", Grouping::Shuffle()}});

      EngineConfig config;
      config.mode = mode;
      config.semantics = DeliverySemantics::kAtMostOnce;
      config.faults = mix.spec;
      config.faults.seed = TestSeed() ^ (0xca15 + salt);
      TopologyEngine engine(builder.Build().value(), config);
      engine.Run();  // Must terminate (no deadlock) despite lost tuples.

      const std::string cell =
          std::string(mix.name) + "/" +
          (mode == ExecutionMode::kDedicated ? "dedicated" : "multiplexed");
      // Never double-delivers: every sink execution maps to a distinct
      // spout emission (mixes here inject no duplication).
      EXPECT_LE(delivered->load(), kN) << cell;
    }
  }
}

}  // namespace
}  // namespace streamlib::platform
