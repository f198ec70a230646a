// Reproduction harness for Table 2 (streaming platforms) — the design axes
// the paper's Section 3 narrative turns on, measured on the in-process
// topology engine:
//   * A-executor-model: Storm-style multiplexed executors vs Heron-style
//     dedicated per-task threads ("running each task in a process of its
//     own ... improved performance").
//   * A-ack-overhead: at-most-once vs at-least-once (XOR-ledger acking,
//     Storm's reliability model) — the throughput cost of guarantees.
//   * queue capacity: the backpressure knob.
//   * A-transport-batching: the batched data plane (per-target staging
//     buffers + batch queue ops + SPSC rings) measured as a full mode x
//     semantics x grouping matrix on a 1-spout/4-bolt topology, with
//     results written to BENCH_platform.json. The per-tuple plane it
//     replaced is cited from its recorded numbers (EXPERIMENTS.md).
//
// Flags (handled before google-benchmark sees argv):
//   --quick      reduced tuple counts, matrix + JSON only (the ctest
//                smoke run) — skips the timing section and word-count
//                tables.
//   --out=PATH   where to write BENCH_platform.json (default: cwd).
//   --telemetry-out=PATH  run a telemetry-instrumented word count (sampler
//                + sampled tracing) and write the TelemetryReport JSON to
//                PATH (validated by the telemetry_schema_check ctest).
//   --record-out=PATH  run the word count with the flight recorder
//                (recorder.h) attached and write the SLFR recording to
//                PATH — inspectable with `streamlib_debug dump-trace`.
//   --rescale    run ONLY the G-rescale acceptance bench: exactly-once
//                crash/resume with the last complete epoch's key-grouped
//                frames resharded N -> 2N, verified against an unsharded
//                baseline (recovery + rescale timings to stdout).
//   --fusion     run ONLY the H-fusion matrix (fused edges vs
//                queued execution, DESIGN.md §13) plus the fused-vs-queued
//                sketch bit-identity check, writing a self-contained JSON
//                to --out (the bench_fusion_smoke ctest fixture).
//   --shards=N   run ONLY the D-shard-merge sweep: key-sharded
//                SketchBolt tasks (1..N, powers of two) feeding a global
//                SketchCombinerBolt, verifying merged estimates equal a
//                single-instance run and measuring throughput per shard
//                count. Writes BENCH_shard_merge.json (--shards-out=PATH
//                to relocate).
//
// Workload: the word-count topology every platform paper uses
// (spout -> splitter x3 -> fields-grouped counter x4 -> sink).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/state.h"
#include "common/timer.h"
#include "core/cardinality/hyperloglog.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/epoch.h"
#include "platform/event_time.h"
#include "platform/recorder.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "workload/zipf.h"

namespace {

using namespace streamlib;
using namespace streamlib::platform;

struct RunResult {
  double throughput_ktps;  // Spout tuples per second / 1000.
  double p50_latency_us;
  double p99_latency_us;
  uint64_t backpressure_stalls;
  uint64_t completed;
  uint64_t failed;
};

/// The shared word-count topology (spout x2 -> split x3 -> count x4 ->
/// sink x1) used by the timing sections and the telemetry report run.
Topology MakeWordCountTopology(uint64_t n_tuples,
                               std::shared_ptr<TupleSink> sink) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [counter, n_tuples]() -> std::unique_ptr<Spout> {
        auto zipf = std::make_shared<workload::ZipfGenerator>(10000, 1.1,
                                                              counter->load() + 7);
        return std::make_unique<GeneratorSpout>(
            [counter, n_tuples, zipf]() -> std::optional<Tuple> {
              if (counter->fetch_add(1) >= n_tuples) return std::nullopt;
              std::string word("w");  // Avoids GCC 12 -Wrestrict FP.
              word += std::to_string(zipf->Next() % 5000);
              return Tuple::Of(std::move(word));
            });
      },
      2);
  builder.AddBolt(
      "split",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector* out) {
              out->Emit(Tuple::Of(in.Str(0)));
            });
      },
      3, {{"spout", Grouping::Shuffle()}});
  builder.AddBolt(
      "count", []() -> std::unique_ptr<Bolt> {
        return std::make_unique<CountingBolt>();
      },
      4, {{"split", Grouping::Fields(0)}});
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink.get());
      },
      1, {{"count", Grouping::Global()}});

  return builder.Build().value();
}

RunResult RunWordCount(uint64_t n_tuples, EngineConfig config) {
  // The word-count tables compare executor models and transports, so
  // every edge stays a queue.
  config.enable_fusion = false;
  auto sink = std::make_shared<TupleSink>();
  TopologyEngine engine(MakeWordCountTopology(n_tuples, sink), config);
  WallTimer timer;
  engine.Run();
  const double seconds = timer.ElapsedSeconds();

  RunResult result;
  result.throughput_ktps =
      static_cast<double>(n_tuples) / seconds / 1000.0;
  auto count_metrics = engine.metrics().ForComponent("count");
  result.p50_latency_us = count_metrics.LatencyPercentileNanos(0.5) / 1000.0;
  result.p99_latency_us = count_metrics.LatencyPercentileNanos(0.99) / 1000.0;
  result.backpressure_stalls =
      engine.metrics().ForComponent("spout").backpressure_stalls() +
      engine.metrics().ForComponent("split").backpressure_stalls();
  result.completed = engine.completed_roots();
  result.failed = engine.failed_roots();
  return result;
}

void BM_TopologyWordCount(benchmark::State& state) {
  // End-to-end engine runs (30k tuples each) under the default config.
  for (auto _ : state) {
    EngineConfig config;
    const RunResult r = RunWordCount(30000, config);
    benchmark::DoNotOptimize(r.throughput_ktps);
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_TopologyWordCount)->Unit(benchmark::kMillisecond);

void PrintTables() {
  using bench::Row;
  const uint64_t kTuples = 300000;

  bench::TableTitle("T2-platforms / A-executor-model",
                    "Storm-style multiplexing vs Heron-style dedicated "
                    "executors (word count, 8 bolt tasks)");
  Row("%-26s | %12s %12s %12s", "execution model", "ktuples/s",
      "p50 lat us", "p99 lat us");
  {
    EngineConfig config;
    config.mode = ExecutionMode::kDedicated;
    const RunResult r = RunWordCount(kTuples, config);
    Row("%-26s | %12.0f %12.0f %12.0f", "dedicated (Heron-like)",
        r.throughput_ktps, r.p50_latency_us, r.p99_latency_us);
  }
  for (uint32_t threads : {1u, 2u, 4u}) {
    EngineConfig config;
    config.mode = ExecutionMode::kMultiplexed;
    config.multiplexed_threads = threads;
    const RunResult r = RunWordCount(kTuples, config);
    char label[64];
    std::snprintf(label, sizeof(label), "multiplexed x%u (Storm-like)",
                  threads);
    Row("%-26s | %12.0f %12.0f %12.0f", label, r.throughput_ktps,
        r.p50_latency_us, r.p99_latency_us);
  }
  Row("paper-shape check (Heron, Section 3): a starved multiplexed pool");
  Row("(x1) loses to dedicated executors on throughput and median latency");
  Row("because every tuple crosses the multiplexer's polling loop; growing");
  Row("the pool recovers throughput — but only dedicated executors get the");
  Row("right parallelism with no pool-size tuning, Heron's operability");
  Row("argument. (Multiplexed mode also buffers unboundedly under");
  Row("imbalance — see the backpressure table — the other Storm pain.)");

  bench::TableTitle("A-ack-overhead",
                    "delivery guarantees: at-most-once vs at-least-once "
                    "(XOR-ledger acker)");
  Row("%-26s | %12s %12s %12s", "semantics", "ktuples/s", "completed",
      "failed");
  {
    EngineConfig config;
    config.semantics = DeliverySemantics::kAtMostOnce;
    const RunResult r = RunWordCount(kTuples, config);
    Row("%-26s | %12.0f %12s %12s", "at-most-once", r.throughput_ktps, "-",
        "-");
  }
  {
    EngineConfig config;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    const RunResult r = RunWordCount(kTuples, config);
    Row("%-26s | %12.0f %12llu %12llu", "at-least-once",
        r.throughput_ktps, static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed));
  }
  Row("paper-shape check (Storm, Section 3): tuple-tree tracking costs");
  Row("throughput — every edge is ledgered — in exchange for the");
  Row("completed/failed accounting that enables replay.");

  bench::TableTitle("T2-platforms/backpressure",
                    "bounded queues: capacity vs stalls (flow control)");
  Row("%-14s | %12s %14s", "queue cap", "ktuples/s", "producer stalls");
  for (size_t capacity : {16, 256, 4096}) {
    EngineConfig config;
    config.queue_capacity = capacity;
    const RunResult r = RunWordCount(kTuples, config);
    Row("%-14zu | %12.0f %14llu", capacity, r.throughput_ktps,
        static_cast<unsigned long long>(r.backpressure_stalls));
  }
  Row("paper-shape check: small queues convert imbalance into producer");
  Row("stalls (backpressure) rather than unbounded buffering — the");
  Row("flow-control requirement the platform section lists.");

  bench::TableTitle("T2-platforms/out-of-order",
                    "event-time windows + watermarks: lateness bound vs "
                    "drops and correctness (the 'stream imperfections' "
                    "requirement)");
  Row("%12s | %10s %14s %14s", "lateness", "drops", "drop rate",
      "window counts");
  for (int64_t lateness : {0, 20, 100, 400}) {
    // Events arrive shuffled by up to +-100 positions around real time.
    platform::EventTimeWindower<int> windower(100, lateness);
    Rng rng(881);
    uint64_t fired_total = 0;
    const int kEvents = 50000;
    for (int i = 0; i < kEvents; i++) {
      const int64_t event_time =
          i + static_cast<int64_t>(rng.NextBounded(200)) - 100;
      for (const auto& window : windower.Add(event_time, 1)) {
        fired_total += window.values.size();
      }
    }
    for (const auto& window : windower.Flush()) {
      fired_total += window.values.size();
    }
    Row("%12lld | %10llu %13.2f%% %14llu",
        static_cast<long long>(lateness),
        static_cast<unsigned long long>(windower.late_drops()),
        100.0 * static_cast<double>(windower.late_drops()) / kEvents,
        static_cast<unsigned long long>(fired_total));
  }
  Row("paper-shape check: drops + windowed always equals the event count");
  Row("(nothing silently lost); raising the lateness bound past the");
  Row("disorder spread (two adjacent arrivals can differ by 200 here)");
  Row("drives drops to zero — bounded, explicit out-of-order handling.");
}

// ---------------------------------------------------------------------------
// A-transport-batching: the batched transport matrix.

struct MatrixCell {
  ExecutionMode mode;
  DeliverySemantics semantics;
  GroupingKind grouping;
  uint64_t tuples = 0;
  double seconds = 0;
  double tuples_per_sec = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  uint64_t flushes = 0;
  double avg_flush_size = 0;
  uint64_t max_queue_depth = 0;
  uint64_t spsc_edges = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

const char* ModeName(ExecutionMode mode) {
  return mode == ExecutionMode::kDedicated ? "dedicated" : "multiplexed";
}
const char* SemanticsName(DeliverySemantics s) {
  return s == DeliverySemantics::kAtMostOnce ? "at-most-once"
                                             : "at-least-once";
}
const char* GroupingName(GroupingKind g) {
  return g == GroupingKind::kShuffle ? "shuffle" : "fields";
}

/// One matrix run: generator spout x1 -> trivial work bolt x4. The
/// telemetry knobs default to the engine defaults; the overhead section
/// overrides them to compare instrumented vs dark runs on the same cell.
void RunMatrixCell(MatrixCell& cell,
                   uint32_t telemetry_interval_ms =
                       EngineConfig{}.telemetry_sample_interval_ms,
                   uint32_t trace_every = 0) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t n = cell.tuples;

  TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [counter, n]() -> std::unique_ptr<Spout> {
        return std::make_unique<GeneratorSpout>(
            [counter, n]() -> std::optional<Tuple> {
              const uint64_t i = counter->fetch_add(1);
              if (i >= n) return std::nullopt;
              return Tuple::Of(static_cast<int64_t>(i));
            });
      },
      1);
  builder.AddBolt(
      "work",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& in, OutputCollector*) {
              benchmark::DoNotOptimize(in.Int(0));
            });
      },
      4,
      {{"spout", cell.grouping == GroupingKind::kShuffle
                     ? Grouping::Shuffle()
                     : Grouping::Fields(0)}});

  EngineConfig config;
  config.mode = cell.mode;
  config.semantics = cell.semantics;
  config.multiplexed_threads = 2;
  config.telemetry_sample_interval_ms = telemetry_interval_ms;
  config.trace_sample_every = trace_every;
  // A-transport measures queues: the 1->4 edge would otherwise fuse.
  config.enable_fusion = false;

  TopologyEngine engine(builder.Build().value(), config);
  WallTimer timer;
  engine.Run();
  cell.seconds = timer.ElapsedSeconds();
  cell.tuples_per_sec = static_cast<double>(n) / cell.seconds;

  auto work = engine.metrics().ForComponent("work");
  auto spout = engine.metrics().ForComponent("spout");
  cell.p50_latency_us = work.LatencyPercentileNanos(0.5) / 1000.0;
  cell.p99_latency_us = work.LatencyPercentileNanos(0.99) / 1000.0;
  cell.flushes = spout.flushes();
  cell.avg_flush_size = spout.AvgFlushSize();
  cell.max_queue_depth = work.max_queue_depth();
  cell.spsc_edges = engine.spsc_edges();
  cell.completed = engine.completed_roots();
  cell.failed = engine.failed_roots();
}

// H-fusion results (defined with the fusion section below) ride along in
// the combined BENCH_platform.json document.
struct FusionCell;
void WriteFusionSection(std::ostream& out, bool sketch_identical,
                        const std::vector<FusionCell>& cells);

bool WriteMatrixJson(const std::string& path, bool quick,
                     const std::vector<MatrixCell>& cells,
                     bool fusion_sketch_identical,
                     const std::vector<FusionCell>& fusion_cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"bench_t2_platform\",\n"
      << "  \"experiment\": \"A-transport-batching\",\n"
      << "  \"topology\": \"generator spout x1 -> work bolt x4\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"provenance\": " << bench::ProvenanceJson() << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); i++) {
    const MatrixCell& c = cells[i];
    out << "    {\"mode\": \"" << ModeName(c.mode) << "\", \"semantics\": \""
        << SemanticsName(c.semantics) << "\", \"grouping\": \""
        << GroupingName(c.grouping) << "\", \"tuples\": "
        << c.tuples << ", \"seconds\": " << c.seconds
        << ", \"tuples_per_sec\": " << static_cast<uint64_t>(c.tuples_per_sec)
        << ", \"p50_latency_us\": " << c.p50_latency_us
        << ", \"p99_latency_us\": " << c.p99_latency_us
        << ", \"flushes\": " << c.flushes
        << ", \"avg_flush_size\": " << c.avg_flush_size
        << ", \"max_queue_depth\": " << c.max_queue_depth
        << ", \"spsc_edges\": " << c.spsc_edges
        << ", \"completed_roots\": " << c.completed
        << ", \"failed_roots\": " << c.failed << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  WriteFusionSection(out, fusion_sketch_identical, fusion_cells);
  out << "\n}\n";
  return out.good();
}

bool RunTransportMatrix(bool quick, const std::string& out_path,
                        bool fusion_sketch_identical,
                        const std::vector<FusionCell>& fusion_cells) {
  using bench::Row;
  const int reps = quick ? 1 : 2;
  std::vector<MatrixCell> cells;
  for (ExecutionMode mode :
       {ExecutionMode::kDedicated, ExecutionMode::kMultiplexed}) {
    for (DeliverySemantics sem : {DeliverySemantics::kAtMostOnce,
                                  DeliverySemantics::kAtLeastOnce}) {
      for (GroupingKind grouping :
           {GroupingKind::kShuffle, GroupingKind::kFields}) {
        MatrixCell best;
        best.mode = mode;
        best.semantics = sem;
        best.grouping = grouping;
        best.tuples = quick ? (sem == DeliverySemantics::kAtMostOnce
                                   ? 50000u
                                   : 20000u)
                            : (sem == DeliverySemantics::kAtMostOnce
                                   ? 1000000u
                                   : 300000u);
        for (int rep = 0; rep < reps; rep++) {
          MatrixCell attempt = best;
          attempt.tuples_per_sec = 0;
          RunMatrixCell(attempt);
          if (attempt.tuples_per_sec > best.tuples_per_sec) best = attempt;
        }
        cells.push_back(best);
      }
    }
  }

  bench::TableTitle("A-transport-batching",
                    "batched lock-amortized transport "
                    "(spout x1 -> bolt x4)");
  Row("%-12s %-14s %-8s | %12s %10s %10s %8s", "mode", "semantics",
      "grouping", "tuples/s", "avg flush", "p99 us", "spsc");
  for (const MatrixCell& c : cells) {
    Row("%-12s %-14s %-8s | %12.0f %10.1f %10.0f %8llu", ModeName(c.mode),
        SemanticsName(c.semantics), GroupingName(c.grouping),
        c.tuples_per_sec, c.avg_flush_size, c.p99_latency_us,
        static_cast<unsigned long long>(c.spsc_edges));
  }
  Row("paper-shape check (Section 3, throughput): amortizing per-tuple");
  Row("synchronization over batches lifts every mode x semantics cell;");
  Row("the single-producer dedicated pipeline additionally rides the");
  Row("lock-free SPSC ring. The per-tuple plane it replaced is cited from");
  Row("its recorded numbers (EXPERIMENTS.md A-transport).");

  if (!WriteMatrixJson(out_path, quick, cells, fusion_sketch_identical,
                       fusion_cells)) {
    return false;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return true;
}

/// Telemetry overhead: the dedicated/at-most-once/shuffle batched cell
/// run dark (sampler + tracing off) vs instrumented (10 ms sampler,
/// 1/1024 tracing) — the acceptance bar is instrumented within 5% of
/// dark. Best-of-`reps` per config to denoise scheduler jitter.
void RunTelemetryOverhead(bool quick) {
  using bench::Row;
  const int reps = quick ? 1 : 3;
  const uint64_t n = quick ? 100000u : 1000000u;

  auto best_of = [&](uint32_t interval_ms, uint32_t trace_every) {
    MatrixCell best;
    best.mode = ExecutionMode::kDedicated;
    best.semantics = DeliverySemantics::kAtMostOnce;
    best.grouping = GroupingKind::kShuffle;
    best.tuples = n;
    for (int rep = 0; rep < reps; rep++) {
      MatrixCell attempt = best;
      attempt.tuples_per_sec = 0;
      RunMatrixCell(attempt, interval_ms, trace_every);
      if (attempt.tuples_per_sec > best.tuples_per_sec) best = attempt;
    }
    return best;
  };

  const MatrixCell off = best_of(0, 0);
  const MatrixCell on = best_of(10, 1024);
  const double ratio =
      off.tuples_per_sec > 0 ? on.tuples_per_sec / off.tuples_per_sec : 0;

  bench::TableTitle("B-telemetry-overhead",
                    "10 ms sampler + 1/1024 tracing vs dark run "
                    "(dedicated / at-most-once / shuffle, batched)");
  Row("%-24s | %12s %10s", "telemetry", "tuples/s", "p99 us");
  Row("%-24s | %12.0f %10.0f", "off", off.tuples_per_sec, off.p99_latency_us);
  Row("%-24s | %12.0f %10.0f", "sampler 10ms + trace 1/1024",
      on.tuples_per_sec, on.p99_latency_us);
  Row("instrumented/dark throughput ratio: %.3f (bar: >= 0.95)", ratio);
}

/// Runs the word-count topology with the sampler at 5 ms and tracing at
/// 1/64, then writes the TelemetryReport JSON to `path` and prints the
/// human-readable table. This is what the telemetry_schema_check ctest
/// consumes: the quick run still lasts long enough for >= 2 sampler
/// intervals and emits >= 1 complete trace tree.
bool EmitTelemetryReport(const std::string& path, bool quick) {
  auto sink = std::make_shared<TupleSink>();
  const uint64_t n = quick ? 150000u : 500000u;

  EngineConfig config;
  config.telemetry_sample_interval_ms = 5;
  config.trace_sample_every = 64;

  TopologyEngine engine(MakeWordCountTopology(n, sink), config);
  engine.Run();

  const TelemetryReport report = engine.telemetry().BuildReport();
  report.WriteTable(std::cout);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  report.WriteJson(out);
  if (!out.good()) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// RunWordCount with the flight recorder attached: builds the topology
/// once so the recording's fingerprint and the engine's topology are the
/// same object, runs, finalizes. `record_path` empty means a dark run
/// through the identical code path (the overhead comparison below).
struct RecordedWordCount {
  RunResult result{};
  uint64_t records = 0;
  uint64_t bytes = 0;
  bool ok = true;
};

RecordedWordCount RunWordCountRecorded(uint64_t n_tuples, EngineConfig config,
                                       const std::string& record_path) {
  RecordedWordCount out;
  auto sink = std::make_shared<TupleSink>();
  Topology topology = MakeWordCountTopology(n_tuples, sink);
  std::unique_ptr<RunRecorder> recorder;
  if (!record_path.empty()) {
    Result<std::unique_ptr<RunRecorder>> created =
        RunRecorder::Create(record_path, config, topology);
    if (!created.ok()) {
      std::fprintf(stderr, "error: recorder create failed: %s\n",
                   created.status().ToString().c_str());
      out.ok = false;
      return out;
    }
    recorder = std::move(created).value();
    config.recorder = recorder.get();
  }

  WallTimer timer;
  double seconds = 0;
  {
    TopologyEngine engine(std::move(topology), config);
    engine.Run();
    seconds = timer.ElapsedSeconds();
    auto count_metrics = engine.metrics().ForComponent("count");
    out.result.throughput_ktps =
        static_cast<double>(n_tuples) / seconds / 1000.0;
    out.result.p50_latency_us =
        count_metrics.LatencyPercentileNanos(0.5) / 1000.0;
    out.result.p99_latency_us =
        count_metrics.LatencyPercentileNanos(0.99) / 1000.0;
    out.result.completed = engine.completed_roots();
    out.result.failed = engine.failed_roots();
  }
  if (recorder != nullptr) {
    const Status finalized = recorder->Finalize();
    if (!finalized.ok()) {
      std::fprintf(stderr, "error: recorder finalize failed: %s\n",
                   finalized.ToString().c_str());
      out.ok = false;
    }
    out.records = recorder->records_written();
    out.bytes = recorder->bytes_written();
  }
  return out;
}

/// --record-out: capture a word-count run to `path` as an SLFR recording
/// and verify it parses back. The quick run is sized like the telemetry
/// fixture run. `streamlib_debug dump-trace --in=PATH` inspects the file
/// (replaying it needs the word-count topology, which only this binary
/// builds — the CLI's replay commands pair with its own demo recordings).
bool EmitRecording(const std::string& path, bool quick) {
  const uint64_t n = quick ? 150000u : 500000u;
  EngineConfig config;
  const RecordedWordCount run = RunWordCountRecorded(n, config, path);
  if (!run.ok) return false;
  const Result<RecordedRun> parsed = ReadRecording(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: recording readback failed: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  std::printf("wrote %s (%llu records, %llu bytes, %.1f ktuples/s, "
              "summary=%s)\n",
              path.c_str(), static_cast<unsigned long long>(run.records),
              static_cast<unsigned long long>(run.bytes),
              run.result.throughput_ktps,
              parsed.value().has_summary ? "yes" : "no");
  return true;
}

/// Recorder overhead: the word-count run dark vs with the flight recorder
/// capturing every spout emission. Runs are *paired* (dark then recording,
/// back to back) and the reported ratio is the median of the per-pair
/// ratios — on a noisy host the absolute numbers drift ±10% between
/// runs, which a best-of-each-side comparison inherits in full, while
/// adjacent paired runs share host state and their ratio stays tight.
/// Acceptance bar: recording within 2% of dark (EXPERIMENTS.md
/// F-record-replay). The scratch recording is deleted afterwards.
void RunRecorderOverhead(bool quick) {
  using bench::Row;
  const int pairs = quick ? 1 : 7;
  const uint64_t n = quick ? 100000u : 1000000u;
  const std::string scratch = "BENCH_record_overhead.slfr";

  // Host throughput drifts by more than the ~2% being measured, so the
  // comparison is paired (dark and recording back to back), the pair
  // order alternates (cancels monotone drift instead of crediting it to
  // whichever side always runs second), a throwaway run warms the page
  // cache and allocator, and the reported number is the median of the
  // per-pair ratios.
  (void)RunWordCountRecorded(n / 4, EngineConfig{}, scratch);
  RecordedWordCount dark_best;
  RecordedWordCount rec_best;
  std::vector<double> ratios;
  for (int i = 0; i < pairs; i++) {
    RecordedWordCount dark;
    RecordedWordCount rec;
    if (i % 2 == 0) {
      dark = RunWordCountRecorded(n, EngineConfig{}, "");
      rec = RunWordCountRecorded(n, EngineConfig{}, scratch);
    } else {
      rec = RunWordCountRecorded(n, EngineConfig{}, scratch);
      dark = RunWordCountRecorded(n, EngineConfig{}, "");
    }
    if (!dark.ok || !rec.ok) continue;
    ratios.push_back(rec.result.throughput_ktps /
                     dark.result.throughput_ktps);
    if (dark.result.throughput_ktps > dark_best.result.throughput_ktps) {
      dark_best = dark;
    }
    if (rec.result.throughput_ktps > rec_best.result.throughput_ktps) {
      rec_best = rec;
    }
  }
  std::remove(scratch.c_str());
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios.empty() ? 0 : ratios[ratios.size() / 2];

  bench::TableTitle("F-recorder-overhead",
                    "flight recorder capturing every spout emission vs "
                    "dark run (word count, default config, paired runs)");
  Row("%-24s | %12s %10s %12s %12s", "recorder", "ktuples/s", "p99 us",
      "records", "bytes");
  Row("%-24s | %12.0f %10.0f %12s %12s", "off (best)",
      dark_best.result.throughput_ktps, dark_best.result.p99_latency_us, "-",
      "-");
  Row("%-24s | %12.0f %10.0f %12llu %12llu", "on (best)",
      rec_best.result.throughput_ktps, rec_best.result.p99_latency_us,
      static_cast<unsigned long long>(rec_best.records),
      static_cast<unsigned long long>(rec_best.bytes));
  Row("recording/dark throughput ratio (median of %zu pairs): %.3f "
      "(bar: >= 0.98)",
      ratios.size(), median);
  if (!ratios.empty()) {
    Row("per-pair ratio spread: [%.3f .. %.3f]", ratios.front(),
        ratios.back());
  }
}

/// Chaos characterization (--chaos): one fixed fault mix, both delivery
/// modes, measured loss and duplication rates at the sink. The numbers
/// make the semantics gap concrete: at-most-once loses tuples silently,
/// at-least-once converts the same injected faults into failed roots the
/// spout is told about (and a replaying spout would recover). Feeds the
/// EXPERIMENTS.md C-fault-injection table.
void RunChaosBench(bool quick) {
  const uint64_t n = quick ? 20000u : 100000u;
  std::printf("\n== chaos: loss/duplication per delivery mode "
              "(n=%llu, drop=2%%, dup=2%%, throw=1%%) ==\n",
              static_cast<unsigned long long>(n));
  std::printf("  %-14s %10s %10s %10s %10s %10s %10s\n", "semantics",
              "delivered", "loss%", "dup_inj", "drop_inj", "completed",
              "failed");
  for (const DeliverySemantics sem :
       {DeliverySemantics::kAtMostOnce, DeliverySemantics::kAtLeastOnce}) {
    auto counter = std::make_shared<std::atomic<uint64_t>>(0);
    auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
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
    config.semantics = sem;
    config.ack_timeout_seconds = 1.0;
    config.faults.seed = 0xbe9c;
    config.faults.drop_tuple_prob = 0.02;
    config.faults.duplicate_tuple_prob = 0.02;
    config.faults.bolt_throw_prob = 0.01;
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    const FaultPlan* plan = engine.fault_plan();
    const uint64_t got = delivered->load();
    const double loss =
        got >= n ? 0.0
                 : 100.0 * static_cast<double>(n - got) /
                       static_cast<double>(n);
    std::printf("  %-14s %10llu %9.2f%% %10llu %10llu %10llu %10llu\n",
                sem == DeliverySemantics::kAtMostOnce ? "at-most-once"
                                                      : "at-least-once",
                static_cast<unsigned long long>(got), loss,
                static_cast<unsigned long long>(
                    plan->injected(FaultKind::kDuplicateTuple)),
                static_cast<unsigned long long>(
                    plan->injected(FaultKind::kDropTuple)),
                static_cast<unsigned long long>(engine.completed_roots()),
                static_cast<unsigned long long>(engine.failed_roots()));
  }
}

// ---------------------------------------------------------------------------
// G-rescale (--rescale): live rescaling through epoch-aligned barrier
// checkpoints. Phase 1 runs a key-grouped sketch pipeline on N shards
// under exactly-once semantics and halts the source mid-stream (a
// simulated failure); the last complete epoch's frames are resharded
// N -> 2N with RescaleEpochFrames and phase 2 resumes on 2N shards to
// finish the stream. Reports the recovery timeline (resume epoch, frame
// surgery time, resumed-run wall time) and verifies the merged sketch is
// identical — total count and every key estimate — to an unsharded
// baseline fed each payload exactly once. Feeds EXPERIMENTS.md section
// G-exactly-once.

struct RescaleBlobs {
  std::mutex mu;
  std::vector<std::string> blobs;
};

Topology MakeRescaleTopology(uint32_t parallelism, int64_t limit,
                             int64_t halt, int64_t keys,
                             std::shared_ptr<RescaleBlobs> blobs) {
  TopologyBuilder builder;
  builder.AddSpout("src", [limit, halt, keys]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplayableSequenceSpout>(
        limit,
        [keys](int64_t seq) { return Tuple::Of(seq % keys, seq); },
        halt);
  });
  builder.AddBolt(
      "shard",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<KeyGroupedSketchBolt<CountMinSketch>>(
            [] { return CountMinSketch(64, 4); },
            [](CountMinSketch& sketch, const Tuple& t) {
              sketch.Add(static_cast<uint64_t>(t.Int(0)));
            },
            /*key_field=*/0, /*dedup_seq_field=*/1);
      },
      parallelism, {{"src", Grouping::Fields(0)}});
  builder.AddBolt(
      "collect",
      [blobs]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [blobs](const Tuple& t, OutputCollector*) {
              std::lock_guard<std::mutex> lock(blobs->mu);
              blobs->blobs.push_back(t.Str(0));
            });
      },
      1, {{"shard", Grouping::Global()}});
  return builder.Build().value();
}

bool RunRescaleBench(bool quick) {
  const int64_t n = quick ? 60000 : 400000;
  const int64_t halt = n / 2;
  const uint64_t interval = quick ? 2000 : 5000;
  const int64_t keys = 997;
  std::printf("\n== rescale: exactly-once crash/resume onto 2N shards "
              "(n=%lld, halt=%lld, epoch every %llu tuples) ==\n",
              static_cast<long long>(n), static_cast<long long>(halt),
              static_cast<unsigned long long>(interval));
  std::printf("  %-10s %-10s %12s %10s %12s %10s %9s\n", "shards_in",
              "shards_out", "resume_epoch", "p1_ms", "rescale_us", "p2_ms",
              "verified");
  bool all_ok = true;
  for (const uint32_t base : {2u, 4u}) {
    KvCheckpointStore store;
    EngineConfig config;
    config.semantics = DeliverySemantics::kExactlyOnce;
    config.checkpoint_store = &store;
    config.epoch_interval_tuples = interval;

    WallTimer phase1_timer;
    {
      auto ignored = std::make_shared<RescaleBlobs>();
      TopologyEngine engine(MakeRescaleTopology(base, n, halt, keys, ignored),
                            config);
      engine.Run();
    }
    const double phase1_ms = phase1_timer.ElapsedSeconds() * 1e3;

    const uint64_t resume = LastCompleteEpoch(store);
    if (resume == 0) {
      std::printf("  %-10u %-10u  no complete epoch before halt — FAILED\n",
                  base, 2 * base);
      all_ok = false;
      continue;
    }
    WallTimer rescale_timer;
    const Status rescaled =
        RescaleEpochFrames(store, resume, "shard", base, 2 * base);
    const double rescale_us = rescale_timer.ElapsedSeconds() * 1e6;
    if (!rescaled.ok()) {
      std::printf("  %-10u %-10u  rescale failed: %s\n", base, 2 * base,
                  rescaled.ToString().c_str());
      all_ok = false;
      continue;
    }

    config.resume_from_epoch = resume;
    auto blobs = std::make_shared<RescaleBlobs>();
    WallTimer phase2_timer;
    TopologyEngine engine(
        MakeRescaleTopology(2 * base, n, /*halt=*/-1, keys, blobs), config);
    engine.Run();
    const double phase2_ms = phase2_timer.ElapsedSeconds() * 1e3;

    // Merge the 2N shard blobs and compare against an unsharded baseline
    // fed every payload exactly once: linearity of the sketch makes the
    // comparison exact, so any lost, duplicated, or misrouted key group
    // shows up as a mismatch.
    bool verified = blobs->blobs.size() == 2 * base;
    CountMinSketch merged(64, 4);
    for (const std::string& blob : blobs->blobs) {
      verified =
          verified &&
          state::MergeBlob(merged,
                           std::vector<uint8_t>(blob.begin(), blob.end()))
              .ok();
    }
    CountMinSketch baseline(64, 4);
    for (int64_t seq = 0; seq < n; seq++) {
      baseline.Add(static_cast<uint64_t>(seq % keys));
    }
    verified = verified && merged.total_count() == baseline.total_count();
    for (uint64_t key = 0; verified && key < static_cast<uint64_t>(keys);
         key++) {
      verified = merged.Estimate(key) == baseline.Estimate(key);
    }
    std::printf("  %-10u %-10u %12llu %10.1f %12.1f %10.1f %9s\n", base,
                2 * base, static_cast<unsigned long long>(resume), phase1_ms,
                rescale_us, phase2_ms, verified ? "OK" : "FAILED");
    all_ok = all_ok && verified;
  }
  return all_ok;
}

// ---------------------------------------------------------------------------
// D-shard-merge: the key-sharded partial-aggregation pattern. N fields-
// grouped SketchBolt tasks each summarize their key partition; one global
// SketchCombinerBolt merges the shard blobs. Mergeability (Agarwal et al.)
// says the merged estimates must EQUAL a single-instance run — this sweep
// checks that on every cell while measuring throughput per shard count.

struct ShardCell {
  size_t shards = 0;
  uint64_t tuples = 0;
  double seconds = 0;
  double tuples_per_sec = 0;
  double hll_merged = 0;
  double hll_single = 0;
  bool hll_equal = false;
  size_t cms_probes = 0;
  bool cms_equal = false;
};

/// Result slots filled by the combiner bolts' Finish callbacks; the engine
/// joins its threads before Run() returns, so plain members are safe to
/// read afterwards.
struct ShardOutcome {
  double hll_estimate = 0;
  bool cms_equal = false;
  size_t cms_probes = 0;
};

ShardCell RunShardCell(size_t shards,
                       const std::shared_ptr<std::vector<std::string>>& words,
                       const HyperLogLog& hll_single,
                       const CountMinSketch& cms_single,
                       const std::vector<std::string>& probe_keys) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto outcome = std::make_shared<ShardOutcome>();
  const uint64_t n = words->size();

  TopologyBuilder builder;
  builder.AddSpout("spout", [counter, words, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, words, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of((*words)[i]);
        });
  });
  builder.AddBolt(
      "hll_shard",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchBolt<HyperLogLog>>(
            HyperLogLog(12), [](HyperLogLog& sketch, const Tuple& t) {
              sketch.Add(t.Str(0));
            });
      },
      static_cast<uint32_t>(shards), {{"spout", Grouping::Fields(0)}});
  builder.AddBolt(
      "hll_merge",
      [outcome]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchCombinerBolt<HyperLogLog>>(
            HyperLogLog(12),
            [outcome](const HyperLogLog& merged, OutputCollector*) {
              outcome->hll_estimate = merged.Estimate();
            });
      },
      1, {{"hll_shard", Grouping::Global()}});
  builder.AddBolt(
      "cms_shard",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(2048, 4), [](CountMinSketch& sketch,
                                        const Tuple& t) {
              sketch.Add(t.Str(0));
            });
      },
      static_cast<uint32_t>(shards), {{"spout", Grouping::Fields(0)}});
  builder.AddBolt(
      "cms_merge",
      [outcome, &cms_single, &probe_keys]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(2048, 4),
            [outcome, &cms_single, &probe_keys](const CountMinSketch& merged,
                                                OutputCollector*) {
              bool equal = merged.total_count() == cms_single.total_count();
              for (const std::string& key : probe_keys) {
                equal = equal &&
                        merged.Estimate(key) == cms_single.Estimate(key);
              }
              outcome->cms_equal = equal;
              outcome->cms_probes = probe_keys.size();
            });
      },
      1, {{"cms_shard", Grouping::Global()}});

  EngineConfig config;
  TopologyEngine engine(builder.Build().value(), config);
  WallTimer timer;
  engine.Run();

  ShardCell cell;
  cell.shards = shards;
  cell.tuples = n;
  cell.seconds = timer.ElapsedSeconds();
  cell.tuples_per_sec = static_cast<double>(n) / cell.seconds;
  cell.hll_merged = outcome->hll_estimate;
  cell.hll_single = hll_single.Estimate();
  cell.hll_equal = cell.hll_merged == cell.hll_single;
  cell.cms_probes = outcome->cms_probes;
  cell.cms_equal = outcome->cms_equal;
  return cell;
}

bool WriteShardMergeJson(const std::string& path, bool quick,
                         const std::vector<ShardCell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"bench_t2_platform\",\n"
      << "  \"experiment\": \"D-shard-merge\",\n"
      << "  \"topology\": \"spout x1 -> SketchBolt xN (fields) -> "
         "SketchCombinerBolt x1 (global)\",\n"
      << "  \"sketches\": \"hll(p=12), count-min(2048x4)\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); i++) {
    const ShardCell& c = cells[i];
    out << "    {\"shards\": " << c.shards << ", \"tuples\": " << c.tuples
        << ", \"seconds\": " << c.seconds
        << ", \"tuples_per_sec\": " << static_cast<uint64_t>(c.tuples_per_sec)
        << ", \"hll_merged\": " << c.hll_merged
        << ", \"hll_single\": " << c.hll_single
        << ", \"hll_equal\": " << (c.hll_equal ? "true" : "false")
        << ", \"cms_probes\": " << c.cms_probes
        << ", \"cms_equal\": " << (c.cms_equal ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

bool RunShardMergeSweep(size_t max_shards, bool quick,
                        const std::string& out_path) {
  using bench::Row;
  const uint64_t n = quick ? 60000u : 1000000u;

  // Deterministic Zipf word stream shared by every cell and the
  // single-instance references.
  auto words = std::make_shared<std::vector<std::string>>();
  words->reserve(n);
  workload::ZipfGenerator zipf(20000, 1.1, 42);
  for (uint64_t i = 0; i < n; i++) {
    std::string word("w");  // Avoids GCC 12 -Wrestrict FP.
    word += std::to_string(zipf.Next() % 5000);
    words->push_back(std::move(word));
  }
  HyperLogLog hll_single(12);
  CountMinSketch cms_single(2048, 4);
  for (const std::string& w : *words) {
    hll_single.Add(w);
    cms_single.Add(w);
  }
  std::vector<std::string> probe_keys;
  for (int k = 0; k < 200; k++) {
    std::string key("w");  // Avoids GCC 12 -Wrestrict FP.
    key += std::to_string(k);
    probe_keys.push_back(std::move(key));
  }

  std::vector<ShardCell> cells;
  for (size_t shards = 1; shards <= max_shards; shards *= 2) {
    cells.push_back(
        RunShardCell(shards, words, hll_single, cms_single, probe_keys));
  }

  bench::TableTitle("D-shard-merge",
                    "key-sharded SketchBolt tasks -> global combiner: "
                    "merged estimate vs single instance, throughput per "
                    "shard count");
  Row("%-8s | %12s %14s %14s %8s %10s", "shards", "ktuples/s", "hll merged",
      "hll single", "equal", "cms equal");
  bool all_equal = true;
  for (const ShardCell& c : cells) {
    Row("%-8zu | %12.0f %14.1f %14.1f %8s %10s", c.shards,
        c.tuples_per_sec / 1000.0, c.hll_merged, c.hll_single,
        c.hll_equal ? "yes" : "NO", c.cms_equal ? "yes" : "NO");
    all_equal = all_equal && c.hll_equal && c.cms_equal;
  }
  Row("paper-shape check (mergeable summaries, Agarwal et al.): sharding");
  Row("the stream by key and merging the shard sketches through the");
  Row("SketchBlob envelope reproduces the single-instance estimates");
  Row("exactly on every cell — accuracy is free, parallelism is not.");

  if (!WriteShardMergeJson(out_path, quick, cells)) return false;
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_equal) {
    std::fprintf(stderr,
                 "error: merged shard estimates diverged from the "
                 "single-instance reference\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// E-batched-sketch-path: the end-to-end payoff of the batched kernels.
// One spout feeds fields-grouped SketchBolt tasks (CM + HLL, both carrying
// a FieldKeyBatchUpdate batched update fn); the engine's fused ExecuteBatch
// path hands each transport batch to the kernel in ONE call. The per-tuple
// reference runs the identical topology with a non-batch-capable twin of
// each sketch bolt; the combiner blobs from both runs must be
// byte-identical (the fused path is an optimization, never a semantics
// change).

/// The same SketchBolt opted out of batched delivery: the engine then
/// calls Execute once per tuple.
template <typename T>
class PerTupleSketchBolt : public SketchBolt<T> {
 public:
  using SketchBolt<T>::SketchBolt;
  bool BatchCapable() const override { return false; }
};

/// A fields-keyed sketch accumulator, batch-capable or its per-tuple twin.
template <typename T>
std::unique_ptr<Bolt> MakeKeySketchBolt(T initial, bool batch_capable) {
  auto update = [](T& sketch, const Tuple& t) {
    sketch.Add(static_cast<uint64_t>(t.Int(0)));
  };
  if (batch_capable) {
    return std::make_unique<SketchBolt<T>>(std::move(initial), update,
                                           FieldKeyBatchUpdate<T>(0));
  }
  return std::make_unique<PerTupleSketchBolt<T>>(std::move(initial), update,
                                                 FieldKeyBatchUpdate<T>(0));
}

struct BatchedPathOutcome {
  std::vector<uint8_t> cms_blob;
  std::vector<uint8_t> hll_blob;
  double seconds = 0;
};

BatchedPathOutcome RunBatchedSketchCell(uint64_t n, bool fused) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto outcome = std::make_shared<BatchedPathOutcome>();

  TopologyBuilder builder;
  builder.AddSpout("keys", [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          // Zipf-ish skew without a per-spout generator: square a cheap
          // mixed draw so hot keys repeat.
          const uint64_t k = HashInt64(i, 7) % 4096;
          return Tuple::Of(static_cast<int64_t>((k * k) >> 6));
        });
  });
  builder.AddBolt(
      "cms_acc",
      [fused]() {
        return MakeKeySketchBolt(CountMinSketch(8192, 4), fused);
      },
      2, {{"keys", Grouping::Fields(0)}});
  builder.AddBolt(
      "cms_out",
      [outcome]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(8192, 4),
            [outcome](const CountMinSketch& merged, OutputCollector*) {
              outcome->cms_blob = state::ToBlob(merged);
            });
      },
      1, {{"cms_acc", Grouping::Global()}});
  builder.AddBolt(
      "hll_acc",
      [fused]() {
        return MakeKeySketchBolt(HyperLogLog(12, /*sparse=*/false), fused);
      },
      2, {{"keys", Grouping::Fields(0)}});
  builder.AddBolt(
      "hll_out",
      [outcome]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SketchCombinerBolt<HyperLogLog>>(
            HyperLogLog(12, /*sparse=*/false),
            [outcome](const HyperLogLog& merged, OutputCollector*) {
              outcome->hll_blob = state::ToBlob(merged);
            });
      },
      1, {{"hll_acc", Grouping::Global()}});

  EngineConfig config;
  // Batched kernel calls take queued input batches; a fused hop delivers
  // one tuple at a time.
  config.enable_fusion = false;
  TopologyEngine engine(builder.Build().value(), config);
  WallTimer timer;
  engine.Run();
  outcome->seconds = timer.ElapsedSeconds();
  return *outcome;
}

bool RunBatchedSketchPath(bool quick) {
  using bench::Row;
  const uint64_t n = quick ? 100000u : 2000000u;
  const BatchedPathOutcome fused = RunBatchedSketchCell(n, true);
  const BatchedPathOutcome unfused = RunBatchedSketchCell(n, false);
  const bool identical = fused.cms_blob == unfused.cms_blob &&
                         fused.hll_blob == unfused.hll_blob;

  bench::TableTitle("E-batched-sketch-path",
                    "transport batches fused into one kernel call per "
                    "batch vs a non-batch-capable twin's per-tuple "
                    "Execute");
  Row("%-28s | %12s %14s", "path", "ktuples/s", "sketch state");
  Row("%-28s | %12.0f %14s", "per-tuple Execute",
      static_cast<double>(n) / unfused.seconds / 1000.0, "reference");
  Row("%-28s | %12.0f %14s", "fused ExecuteBatch",
      static_cast<double>(n) / fused.seconds / 1000.0,
      identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::fprintf(stderr, "error: fused batch path produced different "
                 "sketch state than the per-tuple path\n");
  }
  return identical;
}

// ---------------------------------------------------------------------------
// H-fusion: fused-operator compilation (DESIGN.md §13). Each shape runs
// twice on the identical topology — enable_fusion on vs off — and the
// matrix reports the throughput ratio alongside how many edges actually
// fused (0 for the honest no-fusion-possible rows). A separate fusible
// sketch chain must produce byte-identical CountMinSketch state on both
// channels: fusion is an execution strategy, never a semantics change.

struct FusionCell {
  std::string shape;
  DeliverySemantics semantics = DeliverySemantics::kAtMostOnce;
  bool fused = false;  // enable_fusion for this run
  uint64_t tuples = 0;
  double seconds = 0;
  double tuples_per_sec = 0;
  uint64_t fused_edges = 0;
  uint64_t spsc_edges = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

/// Builds one of the named fusion-matrix shapes over `n` generated tuples.
/// Every bolt ends in a DoNotOptimize sink stage so the work survives -O2.
Topology MakeFusionShape(const std::string& shape, uint64_t n) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto spout_factory = [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  };
  auto map_factory = []() -> std::unique_ptr<Bolt> {
    return std::make_unique<FunctionBolt>(
        [](const Tuple& in, OutputCollector* out) { out->Emit(Tuple(in)); });
  };
  auto sink_factory = []() -> std::unique_ptr<Bolt> {
    return std::make_unique<FunctionBolt>(
        [](const Tuple& in, OutputCollector*) {
          benchmark::DoNotOptimize(in.Int(0));
        });
  };

  TopologyBuilder builder;
  if (shape == "3stage_shuffle_p1") {
    // The acceptance chain: spout -> map -> sink, all parallelism 1.
    builder.AddSpout("spout", spout_factory);
    builder.AddBolt("map", map_factory, 1, {{"spout", Grouping::Shuffle()}});
    builder.AddBolt("sink", sink_factory, 1, {{"map", Grouping::Shuffle()}});
  } else if (shape == "2stage_pipeline_p1") {
    builder.AddSpout("spout", spout_factory);
    builder.AddBolt("sink", sink_factory, 1, {{"spout", Grouping::Shuffle()}});
  } else if (shape == "3stage_parallel2") {
    // Equal-parallelism shuffle: fused pairs producer task i with
    // consumer task i; two independent fused chains.
    builder.AddSpout("spout", spout_factory, 2);
    builder.AddBolt("map", map_factory, 2, {{"spout", Grouping::Shuffle()}});
    builder.AddBolt("sink", sink_factory, 2, {{"map", Grouping::Shuffle()}});
  } else if (shape == "fields_1_to_4") {
    // A 1->N fields edge fuses: the single map task's routing picks the
    // shard, exactly as queued delivery would.
    builder.AddSpout("spout", spout_factory);
    builder.AddBolt("map", map_factory, 1, {{"spout", Grouping::Shuffle()}});
    builder.AddBolt("sink", sink_factory, 4, {{"map", Grouping::Fields(0)}});
  } else if (shape == "two_arm_spout") {
    // Both subscriptions of one spout fuse: a 1->4 fields arm and a 1->1
    // global arm run inline, one after the other, per emission.
    builder.AddSpout("spout", spout_factory);
    builder.AddBolt("sink", sink_factory, 4, {{"spout", Grouping::Fields(0)}});
    builder.AddBolt("tally", sink_factory, 1, {{"spout", Grouping::Global()}});
  } else if (shape == "fields_tail") {
    // Partial fusion: spout -> map (1->2) fuses, the fields-grouped tail
    // is fed by both map tasks (fan-in) and stays queued.
    builder.AddSpout("spout", spout_factory);
    builder.AddBolt("map", map_factory, 2, {{"spout", Grouping::Shuffle()}});
    builder.AddBolt("sink", sink_factory, 4, {{"map", Grouping::Fields(0)}});
  } else {  // "mixed_parallelism": nothing fuses; the honest ~1.0x row.
    builder.AddSpout("spout", spout_factory, 2);
    builder.AddBolt("sink", sink_factory, 4, {{"spout", Grouping::Shuffle()}});
  }
  return builder.Build().value();
}

void RunFusionCell(FusionCell& cell) {
  EngineConfig config;
  config.semantics = cell.semantics;
  config.enable_fusion = cell.fused;
  TopologyEngine engine(MakeFusionShape(cell.shape, cell.tuples), config);
  WallTimer timer;
  engine.Run();
  cell.seconds = timer.ElapsedSeconds();
  cell.tuples_per_sec = static_cast<double>(cell.tuples) / cell.seconds;
  cell.fused_edges = engine.fused_edges();
  cell.spsc_edges = engine.spsc_edges();
  cell.completed = engine.completed_roots();
  cell.failed = engine.failed_roots();
}

/// Fused-vs-queued bit-identity on a sketch topology:
/// keys x1 -> CountMinSketch SketchBolt x4 (fields, fused) -> combiner x1
/// (global, fan-in, queued). Same inputs, both channels, byte-compared
/// ToBlob state.
bool CheckFusionSketchIdentity(uint64_t n) {
  auto run = [n](bool fused) {
    auto counter = std::make_shared<std::atomic<uint64_t>>(0);
    auto blob = std::make_shared<std::vector<uint8_t>>();
    TopologyBuilder builder;
    builder.AddSpout("keys", [counter, n]() -> std::unique_ptr<Spout> {
      return std::make_unique<GeneratorSpout>(
          [counter, n]() -> std::optional<Tuple> {
            const uint64_t i = counter->fetch_add(1);
            if (i >= n) return std::nullopt;
            const uint64_t k = HashInt64(i, 7) % 4096;
            return Tuple::Of(static_cast<int64_t>((k * k) >> 6));
          });
    });
    builder.AddBolt(
        "cms",
        []() -> std::unique_ptr<Bolt> {
          return std::make_unique<SketchBolt<CountMinSketch>>(
              CountMinSketch(8192, 4),
              [](CountMinSketch& sketch, const Tuple& t) {
                sketch.Add(static_cast<uint64_t>(t.Int(0)));
              });
        },
        4, {{"keys", Grouping::Fields(0)}});
    builder.AddBolt(
        "out",
        [blob]() -> std::unique_ptr<Bolt> {
          return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
              CountMinSketch(8192, 4),
              [blob](const CountMinSketch& merged, OutputCollector*) {
                *blob = state::ToBlob(merged);
              });
        },
        1, {{"cms", Grouping::Global()}});
    EngineConfig config;
    config.enable_fusion = fused;
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();
    return *blob;
  };
  return run(true) == run(false) && !run(true).empty();
}

void WriteFusionSection(std::ostream& out, bool sketch_identical,
                        const std::vector<FusionCell>& cells) {
  out << "  \"fusion\": {\n"
      << "    \"experiment\": \"H-fusion\",\n"
      << "    \"sketch_state_identical\": "
      << (sketch_identical ? "true" : "false") << ",\n"
      << "    \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); i++) {
    const FusionCell& c = cells[i];
    out << "      {\"shape\": \"" << c.shape << "\", \"semantics\": \""
        << SemanticsName(c.semantics) << "\", \"channel\": \""
        << (c.fused ? "fused" : "queued") << "\", \"tuples\": " << c.tuples
        << ", \"seconds\": " << c.seconds << ", \"tuples_per_sec\": "
        << static_cast<uint64_t>(c.tuples_per_sec)
        << ", \"fused_edges\": " << c.fused_edges
        << ", \"spsc_edges\": " << c.spsc_edges
        << ", \"completed_roots\": " << c.completed
        << ", \"failed_roots\": " << c.failed << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"speedups\": [\n";
  bool first = true;
  for (const FusionCell& f : cells) {
    if (!f.fused) continue;
    for (const FusionCell& q : cells) {
      if (q.fused || q.shape != f.shape || q.semantics != f.semantics) {
        continue;
      }
      if (!first) out << ",\n";
      first = false;
      out << "      {\"shape\": \"" << f.shape << "\", \"semantics\": \""
          << SemanticsName(f.semantics) << "\", \"fused_edges\": "
          << f.fused_edges << ", \"speedup\": "
          << (q.tuples_per_sec > 0 ? f.tuples_per_sec / q.tuples_per_sec : 0)
          << "}";
    }
  }
  out << "\n    ]\n  }";
}

bool RunFusionMatrix(bool quick, std::vector<FusionCell>* cells_out,
                     bool* sketch_identical_out) {
  using bench::Row;
  const int reps = quick ? 1 : 2;
  const std::vector<std::string> shapes = {
      "3stage_shuffle_p1", "2stage_pipeline_p1", "3stage_parallel2",
      "fields_1_to_4",     "two_arm_spout",      "fields_tail",
      "mixed_parallelism"};
  std::vector<FusionCell> cells;
  for (const std::string& shape : shapes) {
    for (DeliverySemantics sem : {DeliverySemantics::kAtMostOnce,
                                  DeliverySemantics::kAtLeastOnce}) {
      for (bool fused : {true, false}) {
        FusionCell best;
        best.shape = shape;
        best.semantics = sem;
        best.fused = fused;
        best.tuples = quick ? (sem == DeliverySemantics::kAtMostOnce
                                   ? 60000u
                                   : 25000u)
                            : (sem == DeliverySemantics::kAtMostOnce
                                   ? 1000000u
                                   : 300000u);
        for (int rep = 0; rep < reps; rep++) {
          FusionCell attempt = best;
          attempt.tuples_per_sec = 0;
          RunFusionCell(attempt);
          if (attempt.tuples_per_sec > best.tuples_per_sec) best = attempt;
        }
        cells.push_back(best);
      }
    }
  }
  const bool sketch_identical =
      CheckFusionSketchIdentity(quick ? 100000u : 1000000u);

  bench::TableTitle("H-fusion",
                    "fused edges (inline on the producer thread, no "
                    "queue hop) vs queued execution of the identical "
                    "topology");
  Row("%-20s %-14s | %12s %12s %8s %7s %7s", "shape", "semantics",
      "queued t/s", "fused t/s", "speedup", "edges", "rings");
  for (size_t i = 0; i + 1 < cells.size(); i += 2) {
    const FusionCell& f = cells[i];      // fused run pushed first
    const FusionCell& q = cells[i + 1];  // queued partner
    Row("%-20s %-14s | %12.0f %12.0f %7.2fx %7llu %7llu", f.shape.c_str(),
        SemanticsName(f.semantics), q.tuples_per_sec, f.tuples_per_sec,
        q.tuples_per_sec > 0 ? f.tuples_per_sec / q.tuples_per_sec : 0,
        static_cast<unsigned long long>(f.fused_edges),
        static_cast<unsigned long long>(f.spsc_edges));
  }
  Row("sketch state fused vs queued: %s",
      sketch_identical ? "byte-identical" : "DIVERGED");
  Row("paper-shape check (Section 3, operator chains): running a hop");
  Row("inline on its producer's thread removes the queue handoff and the");
  Row("per-hop ack edge, for pipelines and for 1->N fan-out alike (the");
  Row("producer's own routing picks the shard); edges fed by several");
  Row("producer tasks (fan-in) keep their queues and show ~1x.");

  if (!sketch_identical) {
    std::fprintf(stderr, "error: fused chain produced different sketch "
                 "state than the queued run\n");
  }
  *cells_out = std::move(cells);
  *sketch_identical_out = sketch_identical;
  return sketch_identical;
}

/// --fusion standalone mode: matrix + identity check only, written as a
/// self-contained JSON document (the bench_fusion_smoke ctest fixture).
bool RunFusionOnly(bool quick, const std::string& out_path) {
  std::vector<FusionCell> cells;
  bool sketch_identical = false;
  if (!RunFusionMatrix(quick, &cells, &sketch_identical)) return false;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"bench_t2_platform\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  WriteFusionSection(out, sketch_identical, cells);
  out << "\n}\n";
  if (!out.good()) return false;
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool chaos = false;
  size_t shards = 0;
  std::string out_path = "BENCH_platform.json";
  std::string shards_out = "BENCH_shard_merge.json";
  std::string telemetry_out;
  std::string record_out;
  bool recorder_overhead_only = false;
  bool rescale = false;
  bool fusion_only = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; i++) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<size_t>(std::stoul(std::string(arg.substr(9))));
    } else if (arg.rfind("--shards-out=", 0) == 0) {
      shards_out = std::string(arg.substr(13));
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_out = std::string(arg.substr(16));
    } else if (arg.rfind("--record-out=", 0) == 0) {
      record_out = std::string(arg.substr(13));
    } else if (arg == "--recorder-overhead") {
      recorder_overhead_only = true;
    } else if (arg == "--rescale") {
      rescale = true;
    } else if (arg == "--fusion") {
      fusion_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (rescale) {
    return RunRescaleBench(quick) ? 0 : 1;
  }
  if (fusion_only) {
    return RunFusionOnly(quick, out_path) ? 0 : 1;
  }
  if (chaos) {
    RunChaosBench(quick);
    return 0;
  }
  if (recorder_overhead_only) {
    RunRecorderOverhead(quick);
    return 0;
  }
  if (shards > 0) {
    return RunShardMergeSweep(shards, quick, shards_out) ? 0 : 1;
  }
  int pass_argc = static_cast<int>(passthrough.size());
  if (!quick) {
    ::benchmark::Initialize(&pass_argc, passthrough.data());
    if (::benchmark::ReportUnrecognizedArguments(pass_argc,
                                                 passthrough.data())) {
      return 1;
    }
    ::benchmark::RunSpecifiedBenchmarks();
  }
  if (!telemetry_out.empty()) {
    if (!EmitTelemetryReport(telemetry_out, quick)) return 1;
    if (quick) return 0;  // ctest fixture setup: telemetry report only.
  }
  if (!record_out.empty()) {
    if (!EmitRecording(record_out, quick)) return 1;
    if (quick) return 0;  // fixture-style run: recording only.
  }
  std::vector<FusionCell> fusion_cells;
  bool fusion_sketch_identical = false;
  const bool fusion_ok =
      RunFusionMatrix(quick, &fusion_cells, &fusion_sketch_identical);
  if (!RunTransportMatrix(quick, out_path, fusion_sketch_identical,
                          fusion_cells)) {
    return 1;
  }
  if (!fusion_ok) return 1;
  if (!RunBatchedSketchPath(quick)) return 1;
  if (!quick) {
    RunTelemetryOverhead(quick);
    RunRecorderOverhead(quick);
    PrintTables();
  }
  return 0;
}
