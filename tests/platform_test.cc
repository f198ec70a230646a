#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/queue.h"
#include "platform/replayable_log.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "platform/tuple.h"

namespace streamlib::platform {
namespace {

// ------------------------------------------------------------------ Tuple

TEST(TupleTest, TypedAccessors) {
  Tuple t = Tuple::Of(std::string("word"), int64_t{7}, 3.5, true);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.Str(0), "word");
  EXPECT_EQ(t.Int(1), 7);
  EXPECT_DOUBLE_EQ(t.Double(2), 3.5);
  EXPECT_TRUE(t.Bool(3));
  EXPECT_EQ(t.ToString(), "(word, 7, 3.500000, true)");
}

TEST(TupleTest, ValueHashingIsStableAndTyped) {
  EXPECT_EQ(HashOfValue(Value{std::string("x")}),
            HashOfValue(Value{std::string("x")}));
  EXPECT_NE(HashOfValue(Value{int64_t{1}}), HashOfValue(Value{int64_t{2}}));
  // Same bit pattern, different type -> different hash.
  EXPECT_NE(HashOfValue(Value{int64_t{1}}), HashOfValue(Value{true}));
}

// ------------------------------------------------------------------ Queue

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q(10);
  for (int i = 0; i < 5; i++) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 5; i++) EXPECT_EQ(*q.Pop(), i);
}

TEST(BlockingQueueTest, TryPushRespectsCapacity) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BlockingQueueTest, CloseDrainsThenStops) {
  BlockingQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BlockedProducerWakesOnConsume) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // Blocks until the consumer pops.
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q(64);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  const int kPerProducer = 10000;
  for (int p = 0; p < 4; p++) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; i++) q.Push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; c++) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  const int64_t n = 4 * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --------------------------------------------------------------- Topology

TEST(TopologyBuilderTest, RejectsDuplicateNames) {
  TopologyBuilder builder;
  builder.AddSpout("s", [] { return nullptr; });
  builder.AddSpout("s", [] { return nullptr; });
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsUnknownSource) {
  TopologyBuilder builder;
  builder.AddSpout("s", [] { return nullptr; });
  builder.AddBolt("b", [] { return nullptr; }, 1,
                  {{"nonexistent", Grouping::Shuffle()}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsBoltWithoutInputs) {
  TopologyBuilder builder;
  builder.AddBolt("b", [] { return nullptr; }, 1, {});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsCycles) {
  TopologyBuilder builder;
  builder.AddBolt("a", [] { return nullptr; }, 1,
                  {{"b", Grouping::Shuffle()}});
  builder.AddBolt("b", [] { return nullptr; }, 1,
                  {{"a", Grouping::Shuffle()}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, TopologicalOrder) {
  TopologyBuilder builder;
  builder.AddBolt("sink", [] { return nullptr; }, 1,
                  {{"mid", Grouping::Shuffle()}});
  builder.AddBolt("mid", [] { return nullptr; }, 1,
                  {{"src", Grouping::Shuffle()}});
  builder.AddSpout("src", [] { return nullptr; });
  auto result = builder.Build();
  ASSERT_TRUE(result.ok());
  const auto& comps = result.value().components();
  EXPECT_EQ(comps[0].name, "src");
  EXPECT_EQ(comps[1].name, "mid");
  EXPECT_EQ(comps[2].name, "sink");
}

// ----------------------------------------------------------------- Engine

// Builds a counting-words topology: number spout -> "word" mapper ->
// fields-grouped counter -> global sink collecting (word, count) results.
struct WordCountResult {
  std::map<std::string, int64_t> counts;
};

Topology WordCountTopology(uint64_t n_tuples, uint32_t mapper_parallelism,
                           uint32_t counter_parallelism, TupleSink* sink) {
  TopologyBuilder builder;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  builder.AddSpout(
      "numbers",
      [counter, n_tuples]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter, n_tuples]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= n_tuples) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
      },
      1);
  builder.AddBolt(
      "words",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) {
              out->Emit(Tuple::Of("word" + std::to_string(in.Int(0) % 10)));
            });
      },
      mapper_parallelism, {{"numbers", Grouping::Shuffle()}});
  builder.AddBolt(
      "count", []() -> std::unique_ptr<Bolt> {
        return std::make_unique<CountingBolt>();
      },
      counter_parallelism, {{"words", Grouping::Fields(0)}});
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink);
      },
      1, {{"count", Grouping::Global()}});
  auto result = builder.Build();
  EXPECT_TRUE(result.ok());
  return result.value();
}

std::map<std::string, int64_t> RunWordCount(const EngineConfig& config,
                                            uint64_t n = 10000,
                                            uint32_t mappers = 2,
                                            uint32_t counters = 3) {
  TupleSink sink;
  TopologyEngine engine(WordCountTopology(n, mappers, counters, &sink),
                        config);
  engine.Run();
  std::map<std::string, int64_t> totals;
  for (const Tuple& t : sink.Snapshot()) {
    totals[t.Str(0)] += t.Int(1);
  }
  return totals;
}

TEST(TopologyEngineTest, WordCountDedicatedAtMostOnce) {
  EngineConfig config;
  config.mode = ExecutionMode::kDedicated;
  config.semantics = DeliverySemantics::kAtMostOnce;
  auto totals = RunWordCount(config);
  ASSERT_EQ(totals.size(), 10u);
  for (const auto& [word, count] : totals) {
    EXPECT_EQ(count, 1000) << word;  // 10000 tuples over 10 words.
  }
}

TEST(TopologyEngineTest, WordCountMultiplexed) {
  EngineConfig config;
  config.mode = ExecutionMode::kMultiplexed;
  config.multiplexed_threads = 2;
  auto totals = RunWordCount(config);
  ASSERT_EQ(totals.size(), 10u);
  for (const auto& [word, count] : totals) {
    EXPECT_EQ(count, 1000) << word;
  }
}

TEST(TopologyEngineTest, WordCountAtLeastOnceAcksEverything) {
  EngineConfig config;
  config.mode = ExecutionMode::kDedicated;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  TupleSink sink;
  TopologyEngine engine(WordCountTopology(5000, 2, 2, &sink), config);
  engine.Run();
  EXPECT_EQ(engine.completed_roots(), 5000u);
  EXPECT_EQ(engine.failed_roots(), 0u);
}

TEST(TopologyEngineTest, FieldsGroupingPartitionsByKey) {
  // Each distinct key must land on exactly one counter task: with the
  // counter bolt keeping local maps, per-key counts must be exact (no key
  // split across tasks).
  EngineConfig config;
  for (uint32_t counters : {1u, 2u, 7u}) {
    auto totals = RunWordCount(config, 20000, 3, counters);
    ASSERT_EQ(totals.size(), 10u);
    for (const auto& [word, count] : totals) {
      EXPECT_EQ(count, 2000) << word << " counters=" << counters;
    }
  }
}

TEST(TopologyEngineTest, BroadcastDuplicatesToAllTasks) {
  TupleSink sink;
  TopologyBuilder builder;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 100) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "bcast",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      4, {{"src", Grouping::Broadcast()}});
  TopologyEngine engine(builder.Build().value(), EngineConfig{});
  engine.Run();
  EXPECT_EQ(sink.Size(), 400u);  // 100 tuples x 4 tasks.
}

TEST(TopologyEngineTest, GlobalGroupingSingleTask) {
  // With global grouping into a parallel bolt, only task 0 sees data; a
  // per-task counting bolt emits one entry per key from one task only.
  EngineConfig config;
  TupleSink sink;
  TopologyBuilder builder;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 1000) return std::nullopt;
          return Tuple::Of(std::string("k"));
        });
  });
  builder.AddBolt(
      "count", []() -> std::unique_ptr<Bolt> {
        return std::make_unique<CountingBolt>();
      },
      4, {{"src", Grouping::Global()}});
  builder.AddBolt(
      "sink",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"count", Grouping::Global()}});
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  auto tuples = sink.Snapshot();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Int(1), 1000);
}

TEST(TopologyEngineTest, BackpressureStallsAreCounted) {
  // Tiny queues + slow consumer => producers must hit backpressure.
  EngineConfig config;
  config.queue_capacity = 4;
  config.enable_fusion = false;  // Stalls need a queue between the two.
  TupleSink sink;
  TopologyBuilder builder;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  builder.AddSpout("fast", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 2000) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "slow",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple&, OutputCollector*) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            });
      },
      1, {{"fast", Grouping::Shuffle()}});
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  EXPECT_GT(engine.metrics().ForComponent("fast").backpressure_stalls(), 0u);
  EXPECT_EQ(engine.metrics().ForComponent("slow").executed(), 2000u);
}

TEST(TopologyEngineTest, MetricsCountEmittedAndExecuted) {
  EngineConfig config;
  TupleSink sink;
  TopologyEngine engine(WordCountTopology(3000, 2, 2, &sink), config);
  engine.Run();
  auto& m = engine.metrics();
  EXPECT_EQ(m.ForComponent("numbers").emitted(), 3000u);
  EXPECT_EQ(m.ForComponent("words").executed(), 3000u);
  EXPECT_EQ(m.ForComponent("count").executed(), 3000u);
  EXPECT_GE(m.ForComponent("words").LatencyPercentileNanos(0.5), 0.0);
}

// Fault injection: a bolt that drops (never processes) a fraction of
// tuples. With at-least-once + LogReplaySpout, every offset must still be
// delivered at least once.
class DroppingBolt : public Bolt {
 public:
  DroppingBolt(double drop_probability, uint64_t seed, TupleSink* sink)
      : drop_probability_(drop_probability), rng_(seed), sink_(sink) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    if (rng_.NextBool(drop_probability_)) return;  // Swallow: no downstream.
    sink_->Append(input);
  }

 private:
  double drop_probability_;
  Rng rng_;
  TupleSink* sink_;
};

TEST(TopologyEngineTest, AtLeastOnceReplaysThroughLogSpout) {
  // DroppingBolt swallowing tuples does NOT fail the ack tree (it acks by
  // finishing Execute) — instead we test replay by killing tuples between
  // spout and a sink that only acks some: here we simulate loss by having
  // the dropping bolt *be* the leaf. A swallowed tuple still acks, so to
  // exercise OnFail we use a bolt that emits to a closed... Simplest
  // failure mode the engine supports: tuples that take longer than the ack
  // timeout. We use a tiny timeout plus a slow path for a fraction of
  // tuples, and verify the spout sees OnFail + redelivers.
  ReplayableLog log;
  for (int i = 0; i < 300; i++) {
    log.Append(Tuple::Of(static_cast<int64_t>(i)));
  }
  TupleSink sink;
  auto spout_holder = std::make_shared<LogReplaySpout*>(nullptr);
  // Slow exactly once per offset: the first delivery of offsets % 50 == 7
  // exceeds the ack timeout (forcing OnFail + replay); the redelivery is
  // fast and completes.
  auto attempts = std::make_shared<std::array<std::atomic<int>, 300>>();

  TopologyBuilder builder;
  builder.AddSpout("log", [&log, spout_holder]() -> std::unique_ptr<Spout> {
    auto spout = std::make_unique<LogReplaySpout>(&log, 0, UINT64_MAX);
    *spout_holder = spout.get();
    return spout;
  });
  builder.AddBolt(
      "work",
      [&sink, attempts]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [&sink, attempts](const Tuple& in, OutputCollector*) {
              const auto offset = static_cast<size_t>(in.Int(0));
              if (offset % 50 == 7 &&
                  (*attempts)[offset].fetch_add(1) == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(120));
              }
              sink.Append(in);
            });
      },
      4, {{"log", Grouping::Shuffle()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.05;
  // Queued layout: a fused root's timer starts after its inline work, so
  // the slow first delivery would never time out.
  config.enable_fusion = false;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // Every offset was delivered at least once.
  std::vector<int> delivered(300, 0);
  for (const Tuple& t : sink.Snapshot()) {
    delivered[static_cast<size_t>(t.Int(0))]++;
  }
  for (int i = 0; i < 300; i++) {
    EXPECT_GE(delivered[i], 1) << "offset " << i;
  }
  // The slow tuples timed out at least once -> failures + redeliveries.
  EXPECT_GT((*spout_holder)->failed(), 0u);
  EXPECT_GT(engine.failed_roots(), 0u);
}

// Execution-mode sweep: results identical across modes and thread counts.
class EngineModeSweep
    : public ::testing::TestWithParam<std::pair<ExecutionMode, uint32_t>> {};

TEST_P(EngineModeSweep, WordCountCorrectInAllModes) {
  EngineConfig config;
  config.mode = GetParam().first;
  config.multiplexed_threads = GetParam().second;
  auto totals = RunWordCount(config, 5000, 2, 2);
  int64_t sum = 0;
  for (const auto& [word, count] : totals) sum += count;
  EXPECT_EQ(sum, 5000);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineModeSweep,
    ::testing::Values(std::pair{ExecutionMode::kDedicated, 0u},
                      std::pair{ExecutionMode::kMultiplexed, 1u},
                      std::pair{ExecutionMode::kMultiplexed, 2u},
                      std::pair{ExecutionMode::kMultiplexed, 4u}));

// ------------------------------------------------------- Fused batch path

// Spout of n int64 keys -> one SketchBolt<CountMinSketch> shard pair ->
// global combiner capturing the merged blob. Used to pin down the batched
// ExecuteBatch path: same topology, execute_batch_size 1 vs default.
std::vector<uint8_t> RunSketchTopology(const EngineConfig& config, uint64_t n,
                                       bool with_batch_fn) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto blob = std::make_shared<std::vector<uint8_t>>();
  TopologyBuilder builder;
  builder.AddSpout("keys", [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i % 257));
        });
  });
  builder.AddBolt(
      "acc",
      [with_batch_fn]() -> std::unique_ptr<Bolt> {
        auto update = [](CountMinSketch& sketch, const Tuple& t) {
          sketch.Add(static_cast<uint64_t>(t.Int(0)));
        };
        if (with_batch_fn) {
          return std::make_unique<SketchBolt<CountMinSketch>>(
              CountMinSketch(1024, 4), update,
              FieldKeyBatchUpdate<CountMinSketch>(0));
        }
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(1024, 4), update);
      },
      2, {{"keys", Grouping::Fields(0)}});
  builder.AddBolt(
      "merge",
      [blob]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(1024, 4),
            [blob](const CountMinSketch& merged, OutputCollector*) {
              *blob = state::ToBlob(merged);
            });
      },
      1, {{"acc", Grouping::Global()}});
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  return *blob;
}

TEST(TopologyEngineTest, FusedBatchPathMatchesPerTupleState) {
  const uint64_t n = 20000;
  // Reference: per-tuple Execute only (one-message runs never batch).
  EngineConfig scalar_config;
  scalar_config.execute_batch_size = 1;
  const auto reference = RunSketchTopology(scalar_config, n, false);
  ASSERT_FALSE(reference.empty());
  // Fused ExecuteBatch with the batched kernel fn, and fused with the
  // default per-tuple fallback loop: both must land on the same bytes.
  EngineConfig fused_config;
  EXPECT_EQ(RunSketchTopology(fused_config, n, true), reference);
  EXPECT_EQ(RunSketchTopology(fused_config, n, false), reference);
}

TEST(TopologyEngineTest, FusedBatchPathAcksAtLeastOnce) {
  const uint64_t n = 8000;
  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("keys", [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "acc",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchBolt<HyperLogLog>>(
            HyperLogLog(10, /*sparse=*/false),
            [](HyperLogLog& sketch, const Tuple& t) {
              sketch.Add(static_cast<uint64_t>(t.Int(0)));
            },
            FieldKeyBatchUpdate<HyperLogLog>(0));
      },
      2, {{"keys", Grouping::Shuffle()}});
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();
  // Every root must complete through the fused path's batched ack.
  EXPECT_EQ(engine.completed_roots(), n);
  EXPECT_EQ(engine.failed_roots(), 0u);
}

TEST(TopologyEngineTest, FinishPassBoltExceptionFailsOnlyItsTuple) {
  // numbers -> count (emits its totals in Finish) -> picky -> sink: picky
  // throws on one key during the Finish pass. As on the run-phase hop, the
  // throw fails that tuple and lands in bolt_exceptions; Run() returns
  // normally and the other totals still reach the sink.
  TupleSink sink;
  TopologyBuilder builder;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  builder.AddSpout("numbers", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 100) return std::nullopt;
          return Tuple::Of("word" + std::to_string(i % 4));
        });
  });
  builder.AddBolt(
      "count", [] { return std::make_unique<CountingBolt>(); }, 1,
      {{"numbers", Grouping::Global()}});
  builder.AddBolt(
      "picky",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) {
              if (in.Str(0) == "word2") throw std::runtime_error("boom");
              out->Emit(Tuple(in));
            });
      },
      1, {{"count", Grouping::Global()}});
  builder.AddBolt(
      "sink",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"picky", Grouping::Global()}});
  TopologyEngine engine(builder.Build().value(), EngineConfig{});
  ASSERT_NO_THROW(engine.Run());

  const ComponentAggregate picky = engine.metrics().ForComponent("picky");
  EXPECT_EQ(picky.bolt_exceptions(), 1u);
  EXPECT_EQ(picky.executed(), 3u);
  std::map<std::string, int64_t> totals;
  for (const Tuple& t : sink.Snapshot()) totals[t.Str(0)] = t.Int(1);
  EXPECT_EQ(totals, (std::map<std::string, int64_t>{
                        {"word0", 25}, {"word1", 25}, {"word3", 25}}));
}

// ----------------------------------------------------------- ReplayableLog

TEST(ReplayableLogTest, AppendAndRead) {
  ReplayableLog log;
  EXPECT_EQ(log.Append(Tuple::Of(int64_t{1})), 0u);
  EXPECT_EQ(log.Append(Tuple::Of(int64_t{2})), 1u);
  EXPECT_EQ(log.Read(0)->Int(0), 1);
  EXPECT_EQ(log.Read(1)->Int(0), 2);
  EXPECT_FALSE(log.Read(2).has_value());
}

}  // namespace
}  // namespace streamlib::platform
