// Tests for the observability layer (DESIGN.md §7): per-task metrics
// aggregation, the background telemetry sampler, sampled tuple tracing,
// and the report/JSON facade. The engine-level suites run the same small
// topology across both execution modes and both delivery semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "platform/components.h"
#include "platform/engine.h"
#include "platform/metrics.h"
#include "platform/metrics_sampler.h"
#include "platform/queue.h"
#include "platform/spsc_ring.h"
#include "platform/telemetry.h"
#include "platform/topology.h"
#include "platform/trace.h"
#include "platform/tuple.h"

namespace streamlib::platform {
namespace {

/// gen x2 -> fan x3 (re-emits) -> leaf x2. Every engine suite below runs
/// this shape so per-component totals are easy to predict: gen emits
/// `n_tuples` overall, fan executes n and emits n, leaf executes n.
Topology SmallTopology(uint64_t n_tuples) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout(
      "gen",
      [counter, n_tuples]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter, n_tuples]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= n_tuples) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
      },
      2);
  builder.AddBolt(
      "fan",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) { out->Emit(in); });
      },
      3, {{"gen", Grouping::Shuffle()}});
  builder.AddBolt(
      "leaf",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple&, OutputCollector*) {});
      },
      2, {{"fan", Grouping::Shuffle()}});
  return builder.Build().value();
}

struct EngineVariant {
  ExecutionMode mode;
  DeliverySemantics semantics;
};

EngineConfig VariantConfig(const EngineVariant& v) {
  EngineConfig config;
  config.mode = v.mode;
  config.semantics = v.semantics;
  config.multiplexed_threads = 2;
  return config;
}

// ------------------------------------------------------- per-task metrics

TEST(TaskMetricsTest, PerTaskCountersSumToComponentAggregate) {
  const uint64_t kTuples = 3000;
  TopologyEngine engine(SmallTopology(kTuples), VariantConfig({
                            ExecutionMode::kDedicated,
                            DeliverySemantics::kAtMostOnce,
                        }));
  engine.Run();

  MetricsRegistry& registry = engine.metrics();
  for (const std::string& name : registry.ComponentNames()) {
    uint64_t emitted = 0, executed = 0, stalls = 0, flushes = 0;
    size_t tasks = 0;
    for (size_t i = 0; i < registry.task_count(); i++) {
      const TaskMetrics& t = registry.task(i);
      if (t.component() != name) continue;
      tasks++;
      emitted += t.emitted();
      executed += t.executed();
      stalls += t.backpressure_stalls();
      flushes += t.flushes();
    }
    auto agg = registry.ForComponent(name);
    EXPECT_EQ(agg.task_count(), tasks) << name;
    EXPECT_EQ(agg.emitted(), emitted) << name;
    EXPECT_EQ(agg.executed(), executed) << name;
    EXPECT_EQ(agg.backpressure_stalls(), stalls) << name;
    EXPECT_EQ(agg.flushes(), flushes) << name;
  }

  // The aggregate view reproduces the old per-component totals.
  EXPECT_EQ(registry.ForComponent("gen").emitted(), kTuples);
  EXPECT_EQ(registry.ForComponent("fan").executed(), kTuples);
  EXPECT_EQ(registry.ForComponent("fan").emitted(), kTuples);
  EXPECT_EQ(registry.ForComponent("leaf").executed(), kTuples);
  EXPECT_EQ(registry.ForComponent("gen").task_count(), 2u);
  EXPECT_EQ(registry.ForComponent("fan").task_count(), 3u);
}

TEST(TaskMetricsTest, UnknownComponentAggregatesToZero) {
  MetricsRegistry registry;
  registry.RegisterTask("a", 0);
  registry.Freeze();
  auto agg = registry.ForComponent("nope");
  EXPECT_EQ(agg.task_count(), 0u);
  EXPECT_EQ(agg.emitted(), 0u);
}

TEST(MetricsRegistryDeathTest, RegistrationAfterFreezeAborts) {
  MetricsRegistry registry;
  registry.RegisterTask("a", 0);
  registry.Freeze();
  EXPECT_DEATH(registry.RegisterTask("b", 0), "frozen");
}

// ------------------------------------------------------- queue depth gauges

TEST(ApproxSizeTest, BlockingQueueTracksPushPop) {
  BlockingQueue<int> q(8);
  EXPECT_EQ(q.ApproxSize(), 0u);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  EXPECT_EQ(q.ApproxSize(), 2u);
  q.Pop();
  EXPECT_EQ(q.ApproxSize(), 1u);
  std::vector<int> batch = {3, 4, 5};
  ASSERT_EQ(q.PushAll(std::span<int>(batch)), 3u);
  EXPECT_EQ(q.ApproxSize(), 4u);
}

TEST(ApproxSizeTest, SpscRingTracksPushPop) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.ApproxSize(), 0u);
  std::vector<int> in = {1, 2};
  ASSERT_EQ(ring.TryPushAll(std::span<int>(in)), 2u);
  EXPECT_EQ(ring.ApproxSize(), 2u);
  std::vector<int> out;
  ASSERT_EQ(ring.TryPopBatch(out, 1), 1u);
  EXPECT_EQ(ring.ApproxSize(), 1u);
}

// ----------------------------------------------------------------- sampler

TEST(MetricsSamplerTest, DeltaSumsEqualFinalTotals) {
  MetricsRegistry registry;
  TaskMetrics& task = registry.RegisterTask("w", 0);
  registry.Freeze();

  std::vector<MetricsSampler::Probe> probes;
  probes.push_back({&task, {}});
  MetricsSampler sampler(std::move(probes), 1);
  sampler.Start();

  // Concurrent writer hammering the counters while the sampler runs.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 50000; i++) {
      task.IncEmitted();
      task.IncExecuted();
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    done = true;
  });
  while (!done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();
  sampler.Stop();

  const std::vector<TelemetrySample> series = sampler.Snapshot();
  ASSERT_GE(series.size(), 2u);
  uint64_t emitted = 0, executed = 0;
  uint64_t prev_t = 0;
  for (const TelemetrySample& s : series) {
    EXPECT_GE(s.t_ms, prev_t);  // Monotone sample times.
    prev_t = s.t_ms;
    ASSERT_EQ(s.tasks.size(), 1u);
    emitted += s.tasks[0].emitted;
    executed += s.tasks[0].executed;
  }
  EXPECT_EQ(emitted, task.emitted());
  EXPECT_EQ(executed, task.executed());
  EXPECT_EQ(task.emitted(), 50000u);
}

TEST(MetricsSamplerTest, GaugeProbeFeedsWatermark) {
  MetricsRegistry registry;
  TaskMetrics& task = registry.RegisterTask("w", 0);
  registry.Freeze();

  std::atomic<size_t> depth{0};
  // Signalled once the probe has handed 17 to the sampler: depth drops to
  // 5 only after a sample is known to carry 17, however slow the host.
  std::promise<void> returned_17;
  std::atomic<bool> signalled{false};
  std::vector<MetricsSampler::Probe> probes;
  probes.push_back({&task, [&] {
                      const size_t d = depth.load();
                      if (d == 17 && !signalled.exchange(true)) {
                        returned_17.set_value();
                      }
                      return d;
                    }});
  MetricsSampler sampler(std::move(probes), 1);
  sampler.Start();
  depth = 17;
  ASSERT_EQ(returned_17.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "sampler never probed";
  depth = 5;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.Stop();

  // The watermark is the max depth the sampler observed.
  EXPECT_GE(task.max_queue_depth(), 17u);
  bool saw_depth = false;
  for (const TelemetrySample& s : sampler.Snapshot()) {
    if (s.tasks[0].queue_depth == 17) saw_depth = true;
  }
  EXPECT_TRUE(saw_depth);
}

// -------------------------------------------------- engine-level telemetry

class TelemetryEngineSweep : public ::testing::TestWithParam<EngineVariant> {};

TEST_P(TelemetryEngineSweep, SamplerDeltasSumToFinalCountersAcrossRun) {
  EngineConfig config = VariantConfig(GetParam());
  config.telemetry_sample_interval_ms = 1;
  const uint64_t kTuples = 20000;
  TopologyEngine engine(SmallTopology(kTuples), config);
  engine.Run();

  const std::vector<TelemetrySample> series = engine.telemetry().TimeSeries();
  ASSERT_FALSE(series.empty());

  MetricsRegistry& registry = engine.metrics();
  std::vector<uint64_t> emitted(registry.task_count(), 0);
  std::vector<uint64_t> executed(registry.task_count(), 0);
  for (const TelemetrySample& s : series) {
    // interval_ms may be 0 for the sub-millisecond tail sample Stop()
    // appends; deltas are still counted toward the sum invariant.
    ASSERT_EQ(s.tasks.size(), registry.task_count());
    for (const TaskSampleDelta& d : s.tasks) {
      ASSERT_LT(d.task, registry.task_count());
      emitted[d.task] += d.emitted;
      executed[d.task] += d.executed;
    }
  }
  for (size_t i = 0; i < registry.task_count(); i++) {
    EXPECT_EQ(emitted[i], registry.task(i).emitted()) << "task " << i;
    EXPECT_EQ(executed[i], registry.task(i).executed()) << "task " << i;
  }
}

TEST_P(TelemetryEngineSweep, TraceSpanTreesAreWellFormed) {
  EngineConfig config = VariantConfig(GetParam());
  config.trace_sample_every = 16;
  const uint64_t kTuples = 4000;
  TopologyEngine engine(SmallTopology(kTuples), config);
  engine.Run();

  const TraceStore& traces = engine.telemetry().traces();
  EXPECT_GT(traces.trees().size(), 0u);
  EXPECT_GT(traces.complete_tree_count(), 0u);

  for (const TraceTree& tree : traces.trees()) {
    if (!tree.complete) continue;
    ASSERT_FALSE(tree.spans.empty());
    // spans[0] is the root: parent 0, trace id == its own span id.
    EXPECT_EQ(tree.spans[0].event.parent_span, 0u);
    EXPECT_EQ(tree.spans[0].event.span_id, tree.trace_id);
    std::map<uint64_t, size_t> by_span;
    for (size_t i = 0; i < tree.spans.size(); i++) {
      by_span[tree.spans[i].event.span_id] = i;
    }
    for (size_t i = 1; i < tree.spans.size(); i++) {
      const TraceEvent& e = tree.spans[i].event;
      EXPECT_EQ(e.trace_id, tree.trace_id);
      // Every non-root hop's parent exists in the tree...
      ASSERT_TRUE(by_span.count(e.parent_span)) << "span " << e.span_id;
      // ...and no hop's wait+execute exceeds the whole-tree latency.
      EXPECT_LE(e.wait_nanos + e.execute_nanos, tree.end_to_end_nanos);
    }
    // Child links are consistent with parent ids.
    for (size_t i = 0; i < tree.spans.size(); i++) {
      for (size_t child : tree.spans[i].children) {
        ASSERT_LT(child, tree.spans.size());
        EXPECT_EQ(tree.spans[child].event.parent_span,
                  tree.spans[i].event.span_id);
      }
    }
  }

  // Hop stats cover the bolt components (fan + leaf), never the spout.
  bool saw_fan = false;
  for (const TraceStore::HopStats& h : traces.ComponentHopStats()) {
    EXPECT_NE(h.component, "gen");
    EXPECT_GT(h.hops, 0u);
    if (h.component == "fan") saw_fan = true;
  }
  EXPECT_TRUE(saw_fan);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSemantics, TelemetryEngineSweep,
    ::testing::Values(
        EngineVariant{ExecutionMode::kDedicated,
                      DeliverySemantics::kAtMostOnce},
        EngineVariant{ExecutionMode::kDedicated,
                      DeliverySemantics::kAtLeastOnce},
        EngineVariant{ExecutionMode::kMultiplexed,
                      DeliverySemantics::kAtMostOnce},
        EngineVariant{ExecutionMode::kMultiplexed,
                      DeliverySemantics::kAtLeastOnce}),
    [](const ::testing::TestParamInfo<EngineVariant>& info) {
      return std::string(info.param.mode == ExecutionMode::kDedicated
                             ? "Dedicated"
                             : "Multiplexed") +
             (info.param.semantics == DeliverySemantics::kAtMostOnce
                  ? "AtMostOnce"
                  : "AtLeastOnce");
    });

TEST(TelemetryEngineTest, TimeSeriesReadableWhileRunning) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 1;
  TopologyEngine engine(SmallTopology(60000), config);

  std::atomic<bool> stop{false};
  std::atomic<size_t> live_reads{0};
  std::thread reader([&] {
    while (!stop) {
      const std::vector<TelemetrySample> series =
          engine.telemetry().TimeSeries();
      if (!series.empty()) live_reads++;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  engine.Run();
  stop = true;
  reader.join();
  // The reader observed samples concurrently with the run.
  EXPECT_GT(live_reads.load(), 0u);
}

TEST(TelemetryEngineTest, DisabledTelemetryLeavesNoTrace) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;  // No sampler thread.
  config.trace_sample_every = 0;            // No tracing.
  TopologyEngine engine(SmallTopology(2000), config);
  engine.Run();
  EXPECT_TRUE(engine.telemetry().TimeSeries().empty());
  EXPECT_TRUE(engine.telemetry().traces().trees().empty());
  // Sampler owns gauge sampling, so with it off the watermark stays 0.
  EXPECT_EQ(engine.metrics().ForComponent("fan").max_queue_depth(), 0u);
  EXPECT_EQ(engine.metrics().ForComponent("fan").executed(), 2000u);
}

TEST(TelemetryEngineTest, ReportSerializesCountersSeriesAndTraces) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 1;
  config.trace_sample_every = 8;
  TopologyEngine engine(SmallTopology(5000), config);
  engine.Run();

  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_EQ(report.tasks.size(), engine.metrics().task_count());
  EXPECT_FALSE(report.time_series.empty());
  EXPECT_FALSE(report.trace_trees.empty());
  EXPECT_GT(report.complete_trace_trees, 0u);

  std::ostringstream json;
  report.WriteJson(json);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"tasks\""), std::string::npos);
  EXPECT_NE(doc.find("\"time_series\""), std::string::npos);
  EXPECT_NE(doc.find("\"traces\""), std::string::npos);
  EXPECT_NE(doc.find("\"component\": \"fan\""), std::string::npos);

  std::ostringstream table;
  report.WriteTable(table);
  EXPECT_NE(table.str().find("per-task counters"), std::string::npos);
}

// ------------------------------------------------------------ config knobs

TEST(EngineConfigTest, ValidateAcceptsDefaultsAndDisabledTelemetry) {
  EngineConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.telemetry_sample_interval_ms = 0;
  config.trace_sample_every = 0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(EngineConfigTest, ValidateRejectsBadKnobs) {
  {
    EngineConfig config;
    config.queue_capacity = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    EngineConfig config;
    config.execute_batch_size = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    EngineConfig config;
    config.mode = ExecutionMode::kMultiplexed;
    config.multiplexed_threads = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    EngineConfig config;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.max_spout_pending = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    EngineConfig config;
    config.telemetry_sample_interval_ms = 120000;  // > 60 s cap.
    EXPECT_FALSE(config.Validate().ok());
  }
}

}  // namespace
}  // namespace streamlib::platform
