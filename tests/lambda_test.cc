#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "lambda/batch_layer.h"
#include "lambda/lambda_pipeline.h"
#include "lambda/master_log.h"
#include "workload/text_stream.h"

namespace streamlib::lambda {
namespace {

// Builds "prefix<i>" without the operator+ pattern that trips GCC 12's
// -Wrestrict false positive.
std::string NumberedKey(const char* prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

TEST(MasterLogTest, AppendAssignsSequentialOffsets) {
  MasterLog log;
  EXPECT_EQ(log.Append(1, "a", 1.0), 0u);
  EXPECT_EQ(log.Append(2, "b", 1.0), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(MasterLogTest, ReadRangeIsBounded) {
  MasterLog log;
  for (int i = 0; i < 10; i++) log.Append(i, "k", 1.0);
  std::vector<LogRecord> records;
  log.Read(5, 100, &records);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].offset, 5u);
}

TEST(MasterLogTest, GetOutOfRangeFails) {
  MasterLog log;
  log.Append(1, "a", 1.0);
  EXPECT_TRUE(log.Get(0).ok());
  EXPECT_FALSE(log.Get(1).ok());
}

TEST(BatchLayerTest, ExactTotalsOverPrefix) {
  MasterLog log;
  for (int i = 0; i < 100; i++) log.Append(i, "x", 2.0);
  for (int i = 0; i < 50; i++) log.Append(i, "y", 1.0);
  BatchLayer batch;
  BatchView view = batch.Recompute(log);
  EXPECT_DOUBLE_EQ(view.TotalOf("x"), 200.0);
  EXPECT_DOUBLE_EQ(view.TotalOf("y"), 50.0);
  EXPECT_DOUBLE_EQ(view.TotalOf("z"), 0.0);
  EXPECT_EQ(view.through_offset, 150u);
}

TEST(BatchLayerTest, PrefixRecomputeIgnoresSuffix) {
  MasterLog log;
  for (int i = 0; i < 100; i++) log.Append(i, "x", 1.0);
  BatchLayer batch;
  BatchView view = batch.RecomputePrefix(log, 60);
  EXPECT_DOUBLE_EQ(view.TotalOf("x"), 60.0);
}

TEST(BatchLayerTest, TopKOrdering) {
  MasterLog log;
  for (int i = 0; i < 30; i++) log.Append(i, "gold", 1.0);
  for (int i = 0; i < 20; i++) log.Append(i, "silver", 1.0);
  for (int i = 0; i < 10; i++) log.Append(i, "bronze", 1.0);
  BatchView view = BatchLayer().Recompute(log);
  auto top = view.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "gold");
  EXPECT_EQ(top[1].first, "silver");
}

TEST(LambdaPipelineTest, SpeedLayerServesBeforeAnyBatch) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Never triggers.
  config.speed_snapshot_interval_records = 1;  // Exact freshness for asserts.
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 500; i++) pipeline.Ingest(i, "tag", 1.0);
  EXPECT_NEAR(pipeline.QueryTotal("tag"), 500.0, 1.0);
  EXPECT_EQ(pipeline.batch_recomputes(), 0u);
}

TEST(LambdaPipelineTest, BatchAbsorbsSpeedState) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) pipeline.Ingest(i, "k", 1.0);
  pipeline.RunBatchNow();
  // After the hand-off the speed layer is empty and the answer is exact.
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 0u);
  EXPECT_DOUBLE_EQ(pipeline.QueryTotal("k"), 1000.0);
  // New events go to the speed layer only.
  for (int i = 0; i < 10; i++) pipeline.Ingest(i, "k", 1.0);
  EXPECT_NEAR(pipeline.QueryTotal("k"), 1010.0, 1.0);
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 10u);
}

TEST(LambdaPipelineTest, AutomaticBatchTriggering) {
  LambdaConfig config;
  config.batch_interval_records = 100;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) pipeline.Ingest(i, "k", 1.0);
  EXPECT_EQ(pipeline.batch_recomputes(), 10u);
  EXPECT_LT(pipeline.SpeedSuffixLength(), 100u);
  EXPECT_DOUBLE_EQ(pipeline.QueryTotal("k"), 1000.0);
}

TEST(LambdaPipelineTest, MergedTotalsTrackExactCounts) {
  LambdaConfig config;
  config.batch_interval_records = 500;
  LambdaPipeline pipeline(config);
  workload::TextStreamGenerator gen(1000, 1.1, 42);
  std::unordered_map<std::string, double> exact;
  for (int i = 0; i < 20000; i++) {
    const std::string& tag = gen.Next();
    exact[tag] += 1.0;
    pipeline.Ingest(i, tag, 1.0);
  }
  // Heavy keys answered within the speed layer's sketch error.
  for (uint64_t rank = 0; rank < 10; rank++) {
    const std::string& tag = gen.TokenForRank(rank);
    EXPECT_NEAR(pipeline.QueryTotal(tag), exact[tag],
                exact[tag] * 0.02 + 5.0)
        << tag;
  }
}

TEST(LambdaPipelineTest, TopKMergesBatchAndSpeed) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  // Batch phase: "old" dominates, then a batch runs.
  for (int i = 0; i < 300; i++) pipeline.Ingest(i, "old", 1.0);
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "both", 1.0);
  pipeline.RunBatchNow();
  // Speed phase: "new" surges, "both" keeps accumulating.
  for (int i = 0; i < 250; i++) pipeline.Ingest(i, "new", 1.0);
  for (int i = 0; i < 250; i++) pipeline.Ingest(i, "both", 1.0);

  auto top = pipeline.QueryTopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "both");  // 350 merged across the two views.
  EXPECT_NEAR(top[0].second, 350.0, 5.0);
  EXPECT_EQ(top[1].first, "old");
  EXPECT_EQ(top[2].first, "new");
}

TEST(LambdaPipelineTest, DistinctKeysMergedAcrossViews) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 3000; i++) {
    pipeline.Ingest(i, NumberedKey("batch-key-", i), 1.0);
  }
  pipeline.RunBatchNow();
  for (int i = 0; i < 2000; i++) {
    pipeline.Ingest(i, NumberedKey("speed-key-", i), 1.0);
  }
  // 5000 distinct keys split across both views; HLL(12) stderr ~1.6%.
  EXPECT_NEAR(pipeline.QueryDistinctKeys(), 5000.0, 5000.0 * 0.08);
}

TEST(LambdaPipelineTest, StalenessBoundedByInterval) {
  LambdaConfig config;
  config.batch_interval_records = 250;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 10000; i++) {
    pipeline.Ingest(i, NumberedKey("k", i % 7), 1.0);
    EXPECT_LT(pipeline.SpeedSuffixLength(), 250u);
  }
}

TEST(LambdaPipelineTest, SaveAndLoadViewsRoundTripsQueries) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 3000; i++) {
    pipeline.Ingest(i, NumberedKey("batch-key-", i % 40), 1.0 + i % 3);
  }
  pipeline.RunBatchNow();
  for (int i = 0; i < 2000; i++) {
    pipeline.Ingest(i, NumberedKey("speed-key-", i % 25), 2.0);
  }

  const std::string path = ::testing::TempDir() + "lambda_views.bin";
  ASSERT_TRUE(pipeline.SaveViews(path).ok());

  // A fresh pipeline restored from the image must answer every merged
  // query identically — both views travelled as SketchBlobs.
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.LoadViews(path).ok());
  EXPECT_DOUBLE_EQ(restored.QueryTotal("batch-key-7"),
                   pipeline.QueryTotal("batch-key-7"));
  EXPECT_DOUBLE_EQ(restored.QueryTotal("speed-key-3"),
                   pipeline.QueryTotal("speed-key-3"));
  EXPECT_DOUBLE_EQ(restored.QueryDistinctKeys(),
                   pipeline.QueryDistinctKeys());
  const auto top_a = restored.QueryTopK(10);
  const auto top_b = pipeline.QueryTopK(10);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (size_t i = 0; i < top_a.size(); i++) {
    EXPECT_EQ(top_a[i].first, top_b[i].first);
    EXPECT_DOUBLE_EQ(top_a[i].second, top_b[i].second);
  }
}

TEST(LambdaPipelineTest, LoadViewsRejectsCorruptImageAtomically) {
  LambdaConfig config;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 500; i++) {
    pipeline.Ingest(i, NumberedKey("k", i % 10), 1.0);
  }
  const std::string path = ::testing::TempDir() + "lambda_views_corrupt.bin";
  ASSERT_TRUE(pipeline.SaveViews(path).ok());

  // Truncate the image: the load must fail and leave the target untouched.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  LambdaPipeline restored(config);
  for (int i = 0; i < 100; i++) {
    restored.Ingest(i, NumberedKey("live", i), 1.0);
  }
  const double before = restored.QueryTotal("live0");
  EXPECT_FALSE(restored.LoadViews(path).ok());
  EXPECT_DOUBLE_EQ(restored.QueryTotal("live0"), before);
}

// Restored views that cover more records than the pipeline's own log hold
// offsets the next Ingest would reuse: that Ingest must abort, not quietly
// replace the views with a recompute of the short log.
TEST(LambdaPipelineDeathTest, IngestBehindRestoredViewsAborts) {
  LambdaConfig config;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline source(config);
  for (int i = 0; i < 5000; i++) {
    source.Ingest(i, NumberedKey("k", i % 12), 1.0 + i % 3);
  }
  source.RunBatchNow();
  const std::string path = ::testing::TempDir() + "lambda_views_ahead.bin";
  ASSERT_TRUE(source.SaveViews(path).ok());

  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.LoadViews(path).ok());
  const double total = source.QueryTotal("k1");
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k1"), total);
  EXPECT_EQ(restored.serving().BatchThroughOffset(), 5000u);
  EXPECT_DEATH(restored.Ingest(5000, "k1", 1.0), "Ingest after LoadViews");

  // The restored image still serves reads.
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k1"), total);
  EXPECT_EQ(restored.serving().BatchThroughOffset(), 5000u);

  // A batch hand-off replaces the restored views with views of the
  // pipeline's own (empty) log, after which ingest works again.
  restored.RunBatchNow();
  EXPECT_EQ(restored.serving().BatchThroughOffset(), 0u);
  restored.Ingest(0, "k1", 1.0);
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k1"), 1.0);
}

}  // namespace
}  // namespace streamlib::lambda
