// Snapshot-isolated query front-end acceptance (DESIGN.md §14): typed
// config validation, GCRA tenant quotas under a ManualClock, bounded-queue
// rejection, result-cache hits and view-swap invalidation, per-tenant
// accounting through the telemetry schema, the snapshot-staleness bound,
// and the concurrent stress surface (readers hammering the front-end while
// ingest and batch hand-offs race) that `ctest -L tsan` runs under
// -fsanitize=thread. The batch view's top-k index is checked against a
// brute-force sort, under a race for its first build, and across copies,
// moves, restores and recomputes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"
#include "lambda/batch_layer.h"
#include "lambda/lambda_pipeline.h"
#include "lambda/query_frontend.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/telemetry.h"
#include "test_seed.h"

namespace streamlib::lambda {
namespace {

std::string NumberedKey(const char* prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

LambdaConfig SmallConfig() {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Manual batches only.
  config.speed_snapshot_interval_records = 1;
  return config;
}

TEST(LambdaConfigValidateTest, RejectsEveryBadKnobWithTypedCode) {
  LambdaConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config.batch_interval_records = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = LambdaConfig();

  config.cms_width = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = LambdaConfig();

  config.cms_depth = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = LambdaConfig();

  config.topk_capacity = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = LambdaConfig();

  config.hll_precision = 10;
  EXPECT_EQ(config.Validate().code(), StatusCode::kOutOfRange);
  config = LambdaConfig();

  config.speed_snapshot_interval_records = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryFrontendConfigValidateTest, RejectsBadKnobsWithTypedCode) {
  QueryFrontendConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config.workers = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.max_pending = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.default_quota.queries_per_second = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.default_quota.burst = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryFrontendTest, AnswersAllThreeQueryKinds) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 300; i++) pipeline.Ingest(i, "gold", 1.0);
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "silver", 1.0);
  pipeline.RunBatchNow();
  for (int i = 0; i < 50; i++) pipeline.Ingest(i, "gold", 1.0);

  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest total;
  total.kind = QueryKind::kTotal;
  total.tenant = "acme";
  total.key = "gold";
  Result<QueryResponse> r = frontend.Query(total);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().value, 350.0, 1.0);
  EXPECT_EQ(r.value().batch_through_offset, 400u);
  EXPECT_EQ(r.value().through_offset, 450u);
  EXPECT_LE(r.value().batch_through_offset, r.value().through_offset);

  QueryRequest topk;
  topk.kind = QueryKind::kTopK;
  topk.tenant = "acme";
  topk.k = 2;
  Result<QueryResponse> t = frontend.Query(topk);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().topk.size(), 2u);
  EXPECT_EQ(t.value().topk[0].first, "gold");
  EXPECT_EQ(t.value().topk[1].first, "silver");

  QueryRequest distinct;
  distinct.kind = QueryKind::kDistinctKeys;
  distinct.tenant = "acme";
  Result<QueryResponse> d = frontend.Query(distinct);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value().value, 2.0, 1.0);
}

TEST(QueryFrontendTest, MalformedRequestsAreInvalidArgument) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  std::future<QueryResponse> future;
  QueryRequest no_tenant;
  EXPECT_EQ(frontend.Submit(no_tenant, &future).code(),
            StatusCode::kInvalidArgument);

  QueryRequest zero_k;
  zero_k.tenant = "acme";
  zero_k.kind = QueryKind::kTopK;
  zero_k.k = 0;
  EXPECT_EQ(frontend.Submit(zero_k, &future).code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryFrontendTest, TokenBucketEnforcesQuotaDeterministically) {
  LambdaPipeline pipeline(SmallConfig());
  platform::ManualClock clock;
  QueryFrontendConfig config;
  config.clock = &clock;
  config.cache_capacity = 0;  // Isolate the quota path from caching.
  QueryFrontend frontend(&pipeline.serving(), config);
  frontend.Start();

  // 10 qps with burst 2: two back-to-back admits, the third rejects.
  ASSERT_TRUE(frontend.RegisterTenant("metered", {10.0, 2.0}).ok());
  QueryRequest request;
  request.tenant = "metered";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());
  Result<QueryResponse> rejected = frontend.Query(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // One emission interval (100ms at 10 qps) refills exactly one token.
  clock.AdvanceNanos(100'000'000ull);
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_EQ(frontend.Query(request).status().code(),
            StatusCode::kResourceExhausted);

  const FrontendStats stats = frontend.Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].served, 3u);
  EXPECT_EQ(stats.tenants[0].rejected_quota, 2u);
}

TEST(QueryFrontendTest, QuotasAreIsolatedPerTenant) {
  LambdaPipeline pipeline(SmallConfig());
  platform::ManualClock clock;
  QueryFrontendConfig config;
  config.clock = &clock;
  QueryFrontend frontend(&pipeline.serving(), config);
  frontend.Start();
  ASSERT_TRUE(frontend.RegisterTenant("starved", {1.0, 1.0}).ok());

  QueryRequest request;
  request.tenant = "starved";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_FALSE(frontend.Query(request).ok());

  // An unmetered tenant (default quota: unlimited) is unaffected by the
  // starved tenant's empty bucket.
  request.tenant = "free";
  for (int i = 0; i < 50; i++) EXPECT_TRUE(frontend.Query(request).ok());
}

TEST(QueryFrontendTest, FullQueueRejectsWithTypedStatusNotUnboundedBacklog) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontendConfig config;
  config.max_pending = 4;
  config.cache_capacity = 0;  // Every submission must take a queue slot.
  QueryFrontend frontend(&pipeline.serving(), config);
  // Deliberately not started: submissions park in the bounded queue.

  QueryRequest request;
  request.tenant = "acme";
  std::vector<std::future<QueryResponse>> futures(8);
  for (int i = 0; i < 4; i++) {
    request.key = NumberedKey("k", i);
    ASSERT_TRUE(frontend.Submit(request, &futures[i]).ok());
  }
  request.key = "overflow";
  std::future<QueryResponse> overflow;
  const Status full = frontend.Submit(request, &overflow);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);

  // Stop() without Start() drains the four admitted queries inline: every
  // accepted future resolves (no broken promises).
  frontend.Stop();
  for (int i = 0; i < 4; i++) {
    EXPECT_GE(futures[i].get().through_offset, 0u);
  }
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.rejected_queue, 1u);
}

TEST(QueryFrontendTest, CacheHitsAnswerInlineAndViewSwapsInvalidate) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "k", 1.0);
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest request;
  request.tenant = "acme";
  request.key = "k";
  Result<QueryResponse> miss = frontend.Query(request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().cache_hit);

  Result<QueryResponse> hit = frontend.Query(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_DOUBLE_EQ(hit.value().value, miss.value().value);
  EXPECT_EQ(hit.value().snapshot_version, miss.value().snapshot_version);

  // Ingest publishes a new snapshot (interval = 1): the cached answer is
  // for a dead version and must not be served again.
  pipeline.Ingest(0, "k", 1.0);
  Result<QueryResponse> refreshed = frontend.Query(request);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(refreshed.value().cache_hit);
  EXPECT_DOUBLE_EQ(refreshed.value().value, miss.value().value + 1.0);
  EXPECT_GT(refreshed.value().snapshot_version,
            miss.value().snapshot_version);

  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(QueryFrontendTest, StatsAggregateAcrossTenantsSorted) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest request;
  request.key = "k";
  request.tenant = "zeta";
  EXPECT_TRUE(frontend.Query(request).ok());
  request.tenant = "alpha";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());

  const FrontendStats stats = frontend.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "alpha");
  EXPECT_EQ(stats.tenants[0].served, 2u);
  EXPECT_EQ(stats.tenants[1].tenant, "zeta");
  EXPECT_EQ(stats.tenants[1].served, 1u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(QueryFrontendTest, TelemetryExportsServingSection) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();
  QueryRequest request;
  request.tenant = "acme";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());  // Cache hit.

  platform::TelemetryReport report;
  EXPECT_FALSE(report.serving.enabled);
  frontend.FillTelemetry(&report);
  EXPECT_TRUE(report.serving.enabled);
  EXPECT_EQ(report.serving.served, 2u);
  EXPECT_EQ(report.serving.cache_hits, 1u);
  ASSERT_EQ(report.serving.tenants.size(), 1u);
  EXPECT_EQ(report.serving.tenants[0].tenant, "acme");

  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"serving\""), std::string::npos);
  EXPECT_NE(json.str().find("\"acme\""), std::string::npos);
  EXPECT_NE(json.str().find("\"cache_hits\": 1"), std::string::npos);
}

TEST(LambdaPipelineTest, SnapshotStalenessBoundedByPublishInterval) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 64;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) {
    pipeline.Ingest(i, "k", 1.0);
    // The serving snapshot may trail the log by at most interval - 1
    // records — the documented staleness bound of the lock-free read path.
    const uint64_t visible = pipeline.serving().Snapshot()->through_offset();
    const uint64_t logged = pipeline.log().size();
    EXPECT_LE(logged - visible, 63u);
  }
  // Forced publication erases the lag entirely.
  pipeline.PublishSpeedSnapshot();
  EXPECT_EQ(pipeline.serving().Snapshot()->through_offset(),
            pipeline.log().size());
  EXPECT_NEAR(pipeline.QueryTotal("k"), 1000.0, 1.0);
}

// The TSAN target: readers hammer the front-end while an ingest writer and
// a batch thread race full speed. Asserts the snapshot-isolation contract
// on every answer: batch coverage never exceeds total coverage, offsets
// never run ahead of what was truly ingested, and merged top-k lists are
// never torn (sorted, no duplicate keys).
TEST(QueryFrontendStressTest, ConcurrentReadersIngestAndBatchHandoffs) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Batches come from the thread.
  config.speed_snapshot_interval_records = 32;
  LambdaPipeline pipeline(config);
  QueryFrontendConfig fe_config;
  fe_config.workers = 4;
  fe_config.cache_capacity = 256;
  QueryFrontend frontend(&pipeline.serving(), fe_config);
  frontend.Start();

  constexpr int kRecords = 20000;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> ingested{0};

  std::thread writer([&] {
    for (int i = 0; i < kRecords; i++) {
      // Bump BEFORE the append: a snapshot can be published inside
      // Ingest() already covering this record, so the counter must be an
      // upper bound on coverage, not a trailing count.
      ingested.store(i + 1, std::memory_order_release);
      pipeline.Ingest(i, NumberedKey("key", i % 37), 1.0);
    }
    done.store(true, std::memory_order_release);
  });

  std::thread batcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      pipeline.RunBatchNow();
      std::this_thread::yield();
    }
    pipeline.RunBatchNow();
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> answers{0};
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      QueryRequest total;
      total.kind = QueryKind::kTotal;
      total.tenant = NumberedKey("tenant", r % 2);
      QueryRequest topk;
      topk.kind = QueryKind::kTopK;
      topk.tenant = total.tenant;
      topk.k = 8;
      while (!done.load(std::memory_order_acquire)) {
        total.key = NumberedKey("key", r);
        Result<QueryResponse> a = frontend.Query(total);
        ASSERT_TRUE(a.ok());
        // Snapshot-isolation contract: the exact batch prefix is always
        // within total coverage, and coverage never exceeds the writer's
        // pre-append upper bound. (Read `ingested` AFTER the answer —
        // it can only have grown since the snapshot was taken.)
        EXPECT_LE(a.value().batch_through_offset, a.value().through_offset);
        EXPECT_LE(a.value().through_offset,
                  ingested.load(std::memory_order_acquire));

        Result<QueryResponse> b = frontend.Query(topk);
        ASSERT_TRUE(b.ok());
        const auto& list = b.value().topk;
        for (size_t i = 1; i < list.size(); i++) {
          EXPECT_LE(list[i].second, list[i - 1].second)
              << "torn top-k: not sorted";
          EXPECT_NE(list[i].first, list[i - 1].first)
              << "torn top-k: duplicate key";
        }
        answers.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  writer.join();
  batcher.join();
  for (std::thread& reader : readers) reader.join();
  frontend.Stop();

  EXPECT_GT(answers.load(), 0u);
  // Quiescent end state: the final batch covered the whole log, and the
  // merged totals are exact.
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 0u);
  double sum = 0;
  for (int k = 0; k < 37; k++) {
    sum += pipeline.QueryTotal(NumberedKey("key", k));
  }
  EXPECT_NEAR(sum, static_cast<double>(kRecords), kRecords * 0.01);
}

// Same-version answers must be byte-identical: two queries that report the
// same snapshot_version saw the same frozen (batch, speed) pair.
TEST(QueryFrontendStressTest, SameVersionAnswersAreIdentical) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 16;
  LambdaPipeline pipeline(config);
  QueryFrontendConfig fe_config;
  fe_config.cache_capacity = 0;  // Force every answer through Execute.
  QueryFrontend frontend(&pipeline.serving(), fe_config);
  frontend.Start();

  // Halfway through, the writer waits until the reader has compared two
  // answers from one snapshot version. While it waits no version is
  // published, so the comparison cannot depend on how the threads are
  // scheduled; the bounded wait only keeps a broken reader from hanging
  // the test (repeats then stays 0 and the final check fails).
  std::atomic<bool> done{false};
  std::atomic<bool> compared{false};
  std::thread writer([&] {
    for (int i = 0; i < 8000; i++) {
      if (i == 4000) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!compared.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      pipeline.Ingest(i, NumberedKey("key", i % 5), 1.0);
    }
    done.store(true, std::memory_order_release);
  });

  QueryRequest request;
  request.kind = QueryKind::kTotal;
  request.tenant = "checker";
  request.key = "key3";
  uint64_t last_version = 0;
  double last_value = -1;
  uint64_t repeats = 0;
  while (!done.load(std::memory_order_acquire)) {
    Result<QueryResponse> r = frontend.Query(request);
    ASSERT_TRUE(r.ok());
    if (r.value().snapshot_version == last_version) {
      EXPECT_DOUBLE_EQ(r.value().value, last_value)
          << "two answers from snapshot v" << last_version << " differ";
      repeats++;
      compared.store(true, std::memory_order_release);
    } else {
      EXPECT_GT(r.value().snapshot_version, last_version)
          << "snapshot version went backward";
      last_version = r.value().snapshot_version;
      last_value = r.value().value;
    }
  }
  writer.join();
  EXPECT_GT(repeats, 0u);
}

// ------------------------------------------------------ batch top-k index

using Ranked = std::vector<std::pair<std::string, double>>;

// The reference answer: copy every (key, total) pair and sort them all.
Ranked BruteTopK(const BatchView& view, size_t k) {
  Ranked all(view.key_totals.begin(), view.key_totals.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

// A view of `n` keys whose totals come from only a few distinct values, so
// most ranks are decided by the key tie-break.
BatchView TiedView(size_t n, uint64_t seed) {
  Rng rng(seed);
  BatchView view;
  for (size_t i = 0; i < n; i++) {
    view.key_totals[NumberedKey("k", static_cast<int>(rng.NextBounded(4 * n)))] =
        static_cast<double>(rng.NextBounded(5));
  }
  return view;
}

void ExpectTopKMatchesBrute(const BatchView& view) {
  const size_t n = view.key_totals.size();
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 5}) {
    EXPECT_EQ(view.TopK(k), BruteTopK(view, k)) << "k=" << k << " n=" << n;
  }
}

TEST(BatchViewTopKTest, MatchesBruteForceSortOnTiedTotals) {
  ExpectTopKMatchesBrute(BatchView());
  for (size_t n : {1, 2, 9, 64, 1000}) {
    for (uint64_t round = 0; round < 4; round++) {
      ExpectTopKMatchesBrute(TiedView(n, TestSeed() ^ (n * 16 + round)));
    }
  }
}

TEST(BatchViewTopKTest, RacingFirstTopKOnSharedSnapshotAgrees) {
  LambdaPipeline pipeline(SmallConfig());
  Rng rng(TestSeed() ^ 0x70b);
  for (int i = 0; i < 5000; i++) {
    pipeline.Ingest(i, NumberedKey("key", static_cast<int>(rng.NextBounded(800))),
                    static_cast<double>(rng.NextBounded(3)));
  }
  pipeline.RunBatchNow();
  // Nothing has asked this snapshot for a top-k yet: the racers below
  // build its batch view's index.
  const std::shared_ptr<const ServingSnapshot> snap =
      pipeline.serving().Snapshot();
  const size_t n = snap->batch->key_totals.size();

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<Ranked> merged(kThreads), full(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      merged[t] = snap->TopK(10);
      full[t] = snap->batch->TopK(n);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(full[0], BruteTopK(*snap->batch, n));
  for (int t = 1; t < kThreads; t++) {
    EXPECT_EQ(merged[t], merged[0]) << "thread " << t;
    EXPECT_EQ(full[t], full[0]) << "thread " << t;
  }
}

TEST(BatchViewTopKTest, CopiedAndMovedViewsRankTheirOwnTotals) {
  BatchView original = TiedView(200, TestSeed() ^ 0xc0);
  const Ranked expected = BruteTopK(original, 20);
  ASSERT_EQ(original.TopK(20), expected);  // Builds the original's index.

  {
    BatchView copy = original;
    copy.key_totals.begin()->second = 1e9;  // Before the copy's first TopK.
    EXPECT_EQ(copy.TopK(20), BruteTopK(copy, 20));
    EXPECT_EQ(copy.TopK(1).front().second, 1e9);
  }
  // The copy is gone; the original still answers from its own map.
  EXPECT_EQ(original.TopK(20), expected);

  BatchView assigned = TiedView(50, TestSeed() ^ 0xc1);
  assigned.TopK(5);
  assigned = original;
  EXPECT_EQ(assigned.TopK(20), expected);

  BatchView moved = std::move(original);
  EXPECT_EQ(moved.TopK(20), expected);
  // The moved-from view is unranked and answers from whatever it now holds.
  EXPECT_EQ(original.TopK(20), BruteTopK(original, 20));
  original = TiedView(30, TestSeed() ^ 0xc2);
  EXPECT_EQ(original.TopK(40), BruteTopK(original, 40));

  BatchView move_assigned = TiedView(40, TestSeed() ^ 0xc3);
  move_assigned.TopK(5);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.TopK(20), expected);
  EXPECT_EQ(moved.TopK(20), BruteTopK(moved, 20));
}

TEST(BatchViewTopKTest, RestoredViewsRankTheirOwnTotals) {
  BatchView view = TiedView(300, TestSeed() ^ 0xd0);
  view.distinct_keys_blob = state::ToBlob(HyperLogLog(12));
  view.TopK(10);
  platform::KvCheckpointStore store;
  view.SnapshotTo(&store, "v");
  Result<BatchView> restored = BatchView::RestoreFrom(store, "v");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectTopKMatchesBrute(restored.value());
  EXPECT_EQ(restored.value().TopK(300), view.TopK(300));

  // LoadViews replaces a view that was already ranked.
  LambdaPipeline source(SmallConfig());
  for (int i = 0; i < 2000; i++) {
    source.Ingest(i, NumberedKey("saved", i % 70), 1.0 + i % 7);
  }
  source.RunBatchNow();
  const std::string path = ::testing::TempDir() + "topk_index_views.bin";
  ASSERT_TRUE(source.SaveViews(path).ok());

  LambdaPipeline target(SmallConfig());
  for (int i = 0; i < 500; i++) {
    target.Ingest(i, NumberedKey("stale", i % 20), 100.0);
  }
  target.RunBatchNow();
  ASSERT_EQ(target.serving().CurrentBatchView()->TopK(1).front().first
                .rfind("stale", 0),
            0u);
  ASSERT_TRUE(target.LoadViews(path).ok());
  const auto loaded = target.serving().CurrentBatchView();
  EXPECT_EQ(loaded->TopK(70), BruteTopK(*loaded, 70));
  EXPECT_EQ(loaded->TopK(70),
            source.serving().CurrentBatchView()->TopK(70));
}

TEST(BatchViewTopKTest, RecomputedViewRanksItsOwnTotals) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 1000; i++) {
    pipeline.Ingest(i, NumberedKey("key", i % 10), 1.0 + i % 10);
  }
  pipeline.RunBatchNow();
  const auto first = pipeline.serving().CurrentBatchView();
  ASSERT_EQ(first->TopK(1).front().first, "key9");
  ASSERT_EQ(pipeline.QueryTopK(3).front().first, "key9");

  // Reverse the order, then recompute: the new view must not answer from
  // the first view's ranking.
  for (int i = 0; i < 1000; i++) {
    pipeline.Ingest(i, NumberedKey("key", i % 10), 40.0 - 4 * (i % 10));
  }
  pipeline.RunBatchNow();
  const auto second = pipeline.serving().CurrentBatchView();
  ASSERT_NE(second.get(), first.get());
  EXPECT_EQ(second->TopK(10), BruteTopK(*second, 10));
  EXPECT_EQ(second->TopK(1).front().first, "key0");
  EXPECT_EQ(first->TopK(1).front().first, "key9");
}

// ------------------------------------------------ incremental batch views

// `got` equals `want` exactly: the same offset, every total with the same
// bits, and the same distinct-key blob bytes.
void ExpectIdenticalViews(const BatchView& got, const BatchView& want) {
  EXPECT_EQ(got.through_offset, want.through_offset);
  ASSERT_EQ(got.key_totals.size(), want.key_totals.size());
  for (const auto& [key, total] : want.key_totals) {
    const auto it = got.key_totals.find(key);
    ASSERT_NE(it, got.key_totals.end()) << key;
    EXPECT_EQ(std::bit_cast<uint64_t>(it->second),
              std::bit_cast<uint64_t>(total))
        << key << ": " << it->second << " vs " << total;
  }
  EXPECT_EQ(got.distinct_keys_blob, want.distinct_keys_blob);
}

// Each batch hand-off folds only the new records onto the last view the
// pipeline built. Whatever the interval, however hand-offs interleave with
// forced ones (with no and with one new record) and with a LoadViews of
// another log's image, the installed view must cover the whole log and be
// the from-scratch recompute of it, bit for bit. Non-integral values make
// the sums depend on the order they run in.
TEST(IncrementalBatchViewTest, EveryHandOffEqualsFromScratchRecompute) {
  Rng rng(TestSeed() ^ 0xf01d);
  const BatchLayer oracle;
  for (int round = 0; round < 4; round++) {
    // An image of a different log, covering fewer records than the
    // pipeline below holds when it loads it.
    LambdaPipeline other(SmallConfig());
    for (int i = 0; i < 2000; i++) {
      other.Ingest(i, NumberedKey("k", static_cast<int>(rng.NextBounded(50))),
                   100.0 + rng.NextDouble());
    }
    other.RunBatchNow();
    const std::string path = ::testing::TempDir() + "incremental_views.bin";
    ASSERT_TRUE(other.SaveViews(path).ok());

    LambdaConfig config;
    config.batch_interval_records = 200 + rng.NextBounded(3000);
    config.speed_snapshot_interval_records = 1 + rng.NextBounded(64);
    SCOPED_TRACE("round " + std::to_string(round) + ", interval " +
                 std::to_string(config.batch_interval_records));
    LambdaPipeline pipeline(config);
    uint64_t handoffs = 0;
    auto expect_handoff = [&](const char* what) {
      SCOPED_TRACE(what);
      ASSERT_EQ(pipeline.batch_recomputes(), ++handoffs);
      const auto view = pipeline.serving().CurrentBatchView();
      EXPECT_EQ(view->through_offset, pipeline.log().size());
      ExpectIdenticalViews(
          *view, oracle.RecomputePrefix(pipeline.log(), view->through_offset));
    };
    const int kRecords = 12000;
    const int forced = 1000 + static_cast<int>(rng.NextBounded(8000));
    for (int i = 0; i < kRecords; i++) {
      pipeline.Ingest(i,
                      NumberedKey("k", static_cast<int>(rng.NextBounded(3000))),
                      rng.NextDouble() * 10);
      if (pipeline.batch_recomputes() != handoffs) expect_handoff("interval");
      if (i == forced) {
        pipeline.RunBatchNow();
        expect_handoff("forced");
        pipeline.RunBatchNow();
        expect_handoff("forced, no new records");
      }
      if (i == forced + 1) {
        pipeline.RunBatchNow();
        expect_handoff("forced, one new record");
      }
      if (i == 7000) {
        ASSERT_TRUE(pipeline.LoadViews(path).ok());
        ASSERT_EQ(pipeline.serving().BatchThroughOffset(), 2000u);
      }
    }
    pipeline.RunBatchNow();
    expect_handoff("final");
    EXPECT_EQ(pipeline.serving().BatchThroughOffset(),
              static_cast<uint64_t>(kRecords));
  }
}

}  // namespace
}  // namespace streamlib::lambda
