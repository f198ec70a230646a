// Reproduction harness for Figure 1 (the Lambda Architecture). Experiment
// F1-lambda: with a Zipf click stream, compare three ways of answering
// "total clicks for key K" —
//   * batch-only   (steps 2-3: exact but stale),
//   * speed-only   (step 4: fresh but approximate, sketch-backed),
//   * merged       (step 5: the Lambda answer)
// against the exact ground truth, sweeping the batch recompute interval
// (the staleness/recompute-cost trade-off), plus query latency and the
// recompute work performed.
//
// `--serving` runs experiment I-serving-qps instead: the mixed read/write
// matrix for the snapshot-isolated query front-end (DESIGN.md §14) —
// readers x tenants, full-rate ingest in the background, mutex-merge
// baseline vs QueryFrontend — and writes BENCH_lambda_serving.json
// (`--out=PATH`, `--quick` for the CI smoke run).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "lambda/lambda_pipeline.h"
#include "lambda/query_frontend.h"
#include "platform/telemetry.h"
#include "workload/text_stream.h"

namespace {

using namespace streamlib;
using namespace streamlib::lambda;

void BM_LambdaIngest(benchmark::State& state) {
  LambdaConfig config;
  config.batch_interval_records = static_cast<uint64_t>(state.range(0));
  LambdaPipeline pipeline(config);
  workload::TextStreamGenerator gen(10000, 1.1, 1);
  int64_t t = 0;
  for (auto _ : state) {
    pipeline.Ingest(t++, gen.Next(), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LambdaIngest)->Arg(1000000)->Arg(10000);

void BM_LambdaQuery(benchmark::State& state) {
  LambdaConfig config;
  LambdaPipeline pipeline(config);
  workload::TextStreamGenerator gen(10000, 1.1, 2);
  for (int64_t t = 0; t < 100000; t++) pipeline.Ingest(t, gen.Next(), 1.0);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.QueryTotal(gen.TokenForRank(i++ % 100)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LambdaQuery);

void PrintTables() {
  using bench::Row;
  const uint64_t kEvents = 400000;
  const uint64_t kVocab = 20000;

  bench::TableTitle(
      "F1-lambda",
      "who answers best? batch-only vs speed-only vs merged (Figure 1)");
  Row("%14s | %10s %10s %10s | %10s %10s", "batch every", "batch-err%",
      "speed-err%", "merged-err%", "recomputes", "staleness");

  for (uint64_t interval : {37000ull, 150000ull, 1000000000ull}) {
    LambdaConfig config;
    config.batch_interval_records = interval;
    LambdaPipeline pipeline(config);
    workload::TextStreamGenerator gen(kVocab, 1.1, 51);
    std::map<std::string, double> exact;
    for (uint64_t i = 0; i < kEvents; i++) {
      const std::string& tag = gen.Next();
      exact[tag] += 1.0;
      pipeline.Ingest(static_cast<int64_t>(i), tag, 1.0);
    }

    // Average absolute relative error over the 50 heaviest keys for each
    // answering strategy.
    double batch_err = 0;
    double speed_err = 0;
    double merged_err = 0;
    const int kProbe = 50;
    for (int rank = 0; rank < kProbe; rank++) {
      const std::string& tag = gen.TokenForRank(rank);
      const double truth = exact[tag];
      // Batch-only: the stale exact view.
      const double batch_ans = pipeline.serving().BatchThroughOffset() > 0
                                   ? truth * pipeline.serving().BatchThroughOffset() /
                                         static_cast<double>(kEvents)
                                   : 0.0;  // Proportional staleness model.
      const double speed_ans = pipeline.speed().TotalOf(tag);
      const double merged_ans = pipeline.QueryTotal(tag);
      batch_err += std::fabs(batch_ans - truth) / truth;
      // Speed-only covers just the suffix: its "answer" to a total query
      // is missing the batch prefix entirely.
      speed_err += std::fabs(speed_ans - truth) / truth;
      merged_err += std::fabs(merged_ans - truth) / truth;
    }
    const char* label =
        interval > kEvents ? "never" : nullptr;
    char buf[32];
    if (label == nullptr) {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(interval));
      label = buf;
    }
    Row("%14s | %9.2f%% %9.2f%% %9.2f%% | %10llu %10llu", label,
        100.0 * batch_err / kProbe, 100.0 * speed_err / kProbe,
        100.0 * merged_err / kProbe,
        static_cast<unsigned long long>(pipeline.batch_recomputes()),
        static_cast<unsigned long long>(pipeline.SpeedSuffixLength()));
  }
  Row("paper-shape check (Figure 1): batch-only answers lag by exactly the");
  Row("un-recomputed suffix; speed-only misses the batch prefix; only the");
  Row("merged query (step 5) stays accurate at every recompute cadence.");

  bench::TableTitle("F1-lambda/cost",
                    "the trade: batch work vs speed-layer burden");
  Row("%14s | %14s %14s %14s | %14s", "batch every", "records folded",
      "keys copied", "from scratch", "sketch suffix");
  for (uint64_t interval : {25000ull, 50000ull, 100000ull, 200000ull}) {
    LambdaConfig config;
    config.batch_interval_records = interval;
    LambdaPipeline pipeline(config);
    workload::TextStreamGenerator gen(kVocab, 1.1, 53);
    // Each hand-off copies the previous view's totals and folds the records
    // after its end; a from-scratch recompute would read the whole prefix.
    uint64_t folded = 0;
    uint64_t copied = 0;
    uint64_t from_scratch = 0;
    uint64_t last_batches = 0;
    uint64_t last_through = 0;
    uint64_t last_keys = 0;
    for (uint64_t i = 0; i < kEvents; i++) {
      pipeline.Ingest(static_cast<int64_t>(i), gen.Next(), 1.0);
      if (pipeline.batch_recomputes() != last_batches) {
        last_batches = pipeline.batch_recomputes();
        const auto view = pipeline.serving().CurrentBatchView();
        folded += view->through_offset - last_through;
        copied += last_keys;
        from_scratch += view->through_offset;
        last_through = view->through_offset;
        last_keys = view->key_totals.size();
      }
    }
    Row("%14llu | %14llu %14llu %14llu | %14llu",
        static_cast<unsigned long long>(interval),
        static_cast<unsigned long long>(folded),
        static_cast<unsigned long long>(copied),
        static_cast<unsigned long long>(from_scratch),
        static_cast<unsigned long long>(pipeline.SpeedSuffixLength()));
  }
  Row("paper-shape check: every record is folded once whatever the cadence;");
  Row("frequent batches pay instead in keys copied per hand-off (a");
  Row("from-scratch recompute would re-read the prefix quadratically) while");
  Row("shrinking the approximate real-time suffix — Lambda's central dial.");

  bench::TableTitle("F1-lambda/topk",
                    "merged top-5 vs exact top-5 (trending while batching)");
  LambdaConfig config;
  config.batch_interval_records = 50000;
  LambdaPipeline pipeline(config);
  workload::TextStreamGenerator gen(kVocab, 1.2, 57);
  std::map<std::string, double> exact;
  for (uint64_t i = 0; i < kEvents; i++) {
    const std::string& tag = gen.Next();
    exact[tag] += 1.0;
    pipeline.Ingest(static_cast<int64_t>(i), tag, 1.0);
  }
  auto merged_top = pipeline.QueryTopK(5);
  Row("%6s | %-10s %10s | %10s", "rank", "merged key", "estimate",
      "exact");
  for (size_t r = 0; r < merged_top.size(); r++) {
    Row("%6zu | %-10s %10.0f | %10.0f", r + 1, merged_top[r].first.c_str(),
        merged_top[r].second, exact[merged_top[r].first]);
  }
}

// ---------------------------------------------------------------------------
// I-serving-qps: the snapshot-isolation read-path matrix.
// ---------------------------------------------------------------------------

struct ServingCell {
  const char* mode;  // "mutex" (lock-per-query baseline) or "frontend"
  int readers = 0;
  int tenants = 0;
  double seconds = 0;
  uint64_t queries = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t ingest_records = 0;
  double ingest_per_sec = 0;
  uint64_t served = 0;
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

LambdaConfig ServingPipelineConfig(bool quick) {
  LambdaConfig config;
  // A couple of batch hand-offs land mid-cell, so the matrix measures the
  // read path *through* recomputes, not between them.
  config.batch_interval_records = quick ? 100000 : 200000;
  // At full ingest rate the default 256-record publish interval swaps
  // snapshots ~1000x/s, which caps result-cache epochs at ~1 ms. 1024 is
  // the serving-tier trade: a few ms of staleness for cache epochs long
  // enough that repeated dashboard queries actually hit.
  config.speed_snapshot_interval_records = 1024;
  return config;
}

void PreloadPipeline(LambdaPipeline* pipeline,
                     workload::TextStreamGenerator* gen, uint64_t records) {
  for (uint64_t i = 0; i < records; i++) {
    pipeline->Ingest(static_cast<int64_t>(i), gen->Next(), 1.0);
  }
  pipeline->RunBatchNow();
}

/// The seed read path, reconstructed as a baseline: every query serializes
/// on one serving mutex and then probes the *live* speed-layer sketches,
/// whose internal lock is contended by the ingest thread — the exact
/// lock-per-query merge the snapshot refactor removed.
struct MutexMergeBaseline {
  explicit MutexMergeBaseline(LambdaPipeline* pipeline)
      : pipeline(pipeline) {}

  double QueryTotal(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    return pipeline->serving().CurrentBatchView()->TotalOf(key) +
           pipeline->speed().TotalOf(key);
  }

  std::vector<std::pair<std::string, double>> QueryTopK(size_t k) {
    std::lock_guard<std::mutex> lock(mu);
    std::map<std::string, double> merged;
    const auto batch = pipeline->serving().CurrentBatchView();
    for (const auto& [key, total] : batch->TopK(2 * k)) merged[key] = total;
    for (const auto& [key, total] : pipeline->speed().TopK(2 * k)) {
      merged[key] += total;
    }
    std::vector<std::pair<std::string, double>> ranked(merged.begin(),
                                                       merged.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (ranked.size() > k) ranked.resize(k);
    return ranked;
  }

  LambdaPipeline* pipeline;
  std::mutex mu;
};

/// One matrix cell: `readers` query threads (spread over `tenants` tenant
/// ids) against one pipeline with a full-rate ingest thread, for
/// `duration_s`. mode == "frontend" goes through QueryFrontend; "mutex"
/// through the lock-per-query baseline. Both issue the same 15/16 total,
/// 1/16 top-k mix over the 64 hottest keys.
ServingCell RunServingCell(const char* mode, int readers, int tenants,
                           double duration_s, bool quick,
                           bool* pair_consistent,
                           platform::TelemetryReport::ServingSummary*
                               telemetry_out) {
  ServingCell cell;
  cell.mode = mode;
  cell.readers = readers;
  cell.tenants = tenants;

  LambdaPipeline pipeline(ServingPipelineConfig(quick));
  workload::TextStreamGenerator gen(10000, 1.1, 97);
  PreloadPipeline(&pipeline, &gen, quick ? 20000 : 60000);

  const bool use_frontend = std::string(mode) == "frontend";
  MutexMergeBaseline baseline(&pipeline);
  QueryFrontendConfig fe_config;
  fe_config.workers = 2;  // Misses only; hits are answered inline.
  QueryFrontend frontend(&pipeline.serving(), fe_config);
  if (use_frontend) frontend.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ingested{0};
  std::thread ingest([&] {
    int64_t t = 0;
    uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      pipeline.Ingest(t++, gen.Next(), 1.0);
      n++;
    }
    ingested.store(n, std::memory_order_release);
  });

  std::vector<uint64_t> counts(static_cast<size_t>(readers), 0);
  std::vector<std::vector<double>> latencies(static_cast<size_t>(readers));
  std::atomic<bool> pairs_ok{true};
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < readers; r++) {
    threads.emplace_back([&, r] {
      auto& lat = latencies[static_cast<size_t>(r)];
      lat.reserve(1 << 18);
      QueryRequest request;
      request.tenant = "tenant" + std::to_string(r % tenants);
      uint64_t i = static_cast<uint64_t>(r) * 7919;
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto t0 = std::chrono::steady_clock::now();
        if (i % 16 == 15) {
          if (use_frontend) {
            request.kind = QueryKind::kTopK;
            request.k = 10;
            Result<QueryResponse> r2 = frontend.Query(request);
            if (!r2.ok() || r2.value().batch_through_offset >
                                r2.value().through_offset) {
              pairs_ok.store(false, std::memory_order_relaxed);
            }
          } else {
            benchmark::DoNotOptimize(baseline.QueryTopK(10));
          }
        } else {
          const std::string& key = gen.TokenForRank(i % 64);
          if (use_frontend) {
            request.kind = QueryKind::kTotal;
            request.key = key;
            Result<QueryResponse> r2 = frontend.Query(request);
            if (!r2.ok() || r2.value().batch_through_offset >
                                r2.value().through_offset) {
              pairs_ok.store(false, std::memory_order_relaxed);
            }
          } else {
            benchmark::DoNotOptimize(baseline.QueryTotal(key));
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        i++;
        n++;
      }
      counts[static_cast<size_t>(r)] = n;
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  ingest.join();
  const auto end = std::chrono::steady_clock::now();
  cell.seconds = std::chrono::duration<double>(end - start).count();

  for (uint64_t n : counts) cell.queries += n;
  cell.qps = static_cast<double>(cell.queries) / cell.seconds;
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  cell.p50_us = Percentile(&all, 0.50);
  cell.p99_us = Percentile(&all, 0.99);
  cell.ingest_records = ingested.load();
  cell.ingest_per_sec = static_cast<double>(cell.ingest_records) / cell.seconds;

  if (use_frontend) {
    frontend.Stop();
    const FrontendStats stats = frontend.Stats();
    cell.served = stats.served;
    cell.rejected_quota = stats.rejected_quota;
    cell.rejected_queue = stats.rejected_queue;
    cell.cache_hits = stats.cache_hits;
    cell.cache_misses = stats.cache_misses;
    if (pair_consistent != nullptr && !pairs_ok.load()) {
      *pair_consistent = false;
    }
    if (telemetry_out != nullptr) {
      platform::TelemetryReport report;
      frontend.FillTelemetry(&report);
      *telemetry_out = report.serving;
    }
  } else {
    cell.served = cell.queries;
  }
  return cell;
}

int RunServingMatrix(bool quick, const std::string& out_path) {
  using bench::Row;
  const std::vector<int> reader_counts =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> tenant_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 4};
  const double duration_s = quick ? 0.08 : 0.4;

  bench::TableTitle("I-serving-qps",
                    "lock-per-query merge vs snapshot-isolated front-end "
                    "(full-rate ingest in the background)");
  Row("%8s %7s %7s | %12s %9s %9s | %12s | %9s", "mode", "readers",
      "tenants", "read qps", "p50 us", "p99 us", "ingest/s", "hit%");

  bool pair_consistent = true;
  platform::TelemetryReport::ServingSummary telemetry;
  std::vector<ServingCell> cells;
  struct Speedup {
    int readers;
    int tenants;
    double mutex_qps;
    double frontend_qps;
    double speedup;
  };
  std::vector<Speedup> speedups;

  for (int tenants : tenant_counts) {
    for (int readers : reader_counts) {
      const ServingCell mutex_cell = RunServingCell(
          "mutex", readers, tenants, duration_s, quick, nullptr, nullptr);
      const ServingCell fe_cell =
          RunServingCell("frontend", readers, tenants, duration_s, quick,
                         &pair_consistent, &telemetry);
      for (const ServingCell& cell : {mutex_cell, fe_cell}) {
        const double hit_rate =
            cell.cache_hits + cell.cache_misses > 0
                ? 100.0 * static_cast<double>(cell.cache_hits) /
                      static_cast<double>(cell.cache_hits + cell.cache_misses)
                : 0.0;
        Row("%8s %7d %7d | %12.0f %9.2f %9.2f | %12.0f | %8.1f%%",
            cell.mode, cell.readers, cell.tenants, cell.qps, cell.p50_us,
            cell.p99_us, cell.ingest_per_sec, hit_rate);
        cells.push_back(cell);
      }
      speedups.push_back({readers, tenants, mutex_cell.qps, fe_cell.qps,
                          fe_cell.qps / mutex_cell.qps});
    }
  }

  Row("%s", "");
  Row("%8s %7s | %10s", "readers", "tenants", "speedup");
  for (const Speedup& s : speedups) {
    Row("%8d %7d | %9.2fx", s.readers, s.tenants, s.speedup);
  }
  Row("paper-shape check: the mutex merge is flat (or degrades) as readers");
  Row("are added — every query serializes; the snapshot front-end scales");
  Row("with reader threads while ingest keeps running at full rate.");
  if (!pair_consistent) {
    Row("FAILED: a query observed batch coverage beyond total coverage");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"schema_version\": 1,\n  \"serving_bench\": {\n";
  out << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "    \"pair_consistent\": " << (pair_consistent ? "true" : "false")
      << ",\n";
  out << "    \"cells\": [";
  for (size_t i = 0; i < cells.size(); i++) {
    const ServingCell& c = cells[i];
    out << (i == 0 ? "" : ",") << "\n      {\"mode\": \"" << c.mode
        << "\", \"readers\": " << c.readers << ", \"tenants\": " << c.tenants
        << ", \"seconds\": " << c.seconds << ", \"queries\": " << c.queries
        << ", \"qps\": " << c.qps << ", \"p50_us\": " << c.p50_us
        << ", \"p99_us\": " << c.p99_us
        << ", \"ingest_records\": " << c.ingest_records
        << ", \"ingest_per_sec\": " << c.ingest_per_sec
        << ", \"served\": " << c.served
        << ", \"rejected_quota\": " << c.rejected_quota
        << ", \"rejected_queue\": " << c.rejected_queue
        << ", \"cache_hits\": " << c.cache_hits
        << ", \"cache_misses\": " << c.cache_misses << "}";
  }
  out << "\n    ],\n    \"speedups\": [";
  for (size_t i = 0; i < speedups.size(); i++) {
    const Speedup& s = speedups[i];
    out << (i == 0 ? "" : ",") << "\n      {\"readers\": " << s.readers
        << ", \"tenants\": " << s.tenants << ", \"mutex_qps\": " << s.mutex_qps
        << ", \"frontend_qps\": " << s.frontend_qps
        << ", \"speedup\": " << s.speedup << "}";
  }
  out << "\n    ]\n  },\n  \"serving\": ";
  platform::TelemetryReport::WriteServingJson(out, telemetry, "  ");
  out << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return pair_consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool serving = false;
  bool quick = false;
  std::string out_path = "BENCH_lambda_serving.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--serving") {
      serving = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (serving) return RunServingMatrix(quick, out_path);

  int bench_argc = static_cast<int>(passthrough.size());
  ::benchmark::Initialize(&bench_argc, passthrough.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  PrintTables();
  return 0;
}
