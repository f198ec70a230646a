// Tests for the transport primitives: BlockingQueue batch operations and
// the SPSC ring buffer, including concurrent conservation/order checks,
// the ring's park/wake handshake on both sides, and close-while-full /
// close-while-empty races.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "platform/queue.h"
#include "platform/spsc_ring.h"

namespace streamlib::platform {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// BlockingQueue batch API.

TEST(BlockingQueueBatchTest, PushAllPopBatchPreservesFifoOrder) {
  BlockingQueue<int> q(64);
  std::vector<int> in = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.PushAll(std::span<int>(in)), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BlockingQueueBatchTest, PopBatchRespectsMax) {
  BlockingQueue<int> q(64);
  std::vector<int> in = {1, 2, 3, 4, 5};
  q.PushAll(std::span<int>(in));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.TryPopBatch(out, 16), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BlockingQueueBatchTest, TryPushAllMovesOnlyAPrefixWhenNearCapacity) {
  BlockingQueue<std::string> q(4);
  std::vector<std::string> in = {"a", "b", "c", "d", "e", "f"};
  EXPECT_EQ(q.TryPushAll(std::span<std::string>(in)), 4u);
  // The prefix was consumed (moved-from); the suffix is untouched.
  EXPECT_EQ(in[4], "e");
  EXPECT_EQ(in[5], "f");
  EXPECT_EQ(q.TryPushAll(std::span<std::string>(in).subspan(4)), 0u);
  std::vector<std::string> out;
  EXPECT_EQ(q.TryPopBatch(out, 16), 4u);
  EXPECT_EQ(out, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(BlockingQueueBatchTest, TryPushHandsTheItemBackOnFailure) {
  BlockingQueue<std::string> q(1);
  std::string first = "first";
  EXPECT_TRUE(q.TryPush(std::move(first)));
  std::string second = "second";
  EXPECT_FALSE(q.TryPush(std::move(second)));
  // Failed push must not consume the item — no copy was lost.
  EXPECT_EQ(second, "second");
}

TEST(BlockingQueueBatchTest, BlockingPushAllCompletesAsConsumerDrains) {
  BlockingQueue<int> q(4);
  std::vector<int> in(64);
  for (int i = 0; i < 64; i++) in[i] = i;
  std::thread producer([&] { EXPECT_EQ(q.PushAll(std::span<int>(in)), 64u); });
  std::vector<int> out;
  while (out.size() < 64) {
    std::vector<int> chunk;
    if (q.PopBatchWithTimeout(chunk, 8, milliseconds(100)) == 0) break;
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  producer.join();
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; i++) EXPECT_EQ(out[i], i);
}

TEST(BlockingQueueBatchTest, PopWithTimeoutTimesOutOnEmptyQueue) {
  BlockingQueue<int> q(4);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopWithTimeout(milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(15));
  q.ForcePush(7);
  EXPECT_EQ(q.PopWithTimeout(milliseconds(20)).value_or(-1), 7);
}

TEST(BlockingQueueBatchTest, CloseWakesBlockedBatchOperations) {
  BlockingQueue<int> full_q(2);
  std::vector<int> overflow = {1, 2, 3, 4, 5};
  std::thread producer([&] {
    // Only the first two fit; the rest are dropped at close.
    EXPECT_EQ(full_q.PushAll(std::span<int>(overflow)), 2u);
  });
  BlockingQueue<int> empty_q(2);
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(empty_q.PopBatch(out, 4), 0u);  // Blocks until close.
  });
  std::this_thread::sleep_for(milliseconds(20));
  full_q.Close();
  empty_q.Close();
  producer.join();
  consumer.join();
}

TEST(BlockingQueueBatchTest, ConcurrentBatchProducersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  BlockingQueue<uint64_t> q(128);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&q, p] {
      std::vector<uint64_t> batch;
      for (int i = 0; i < kPerProducer; i++) {
        batch.push_back(static_cast<uint64_t>(p) * kPerProducer + i);
        if (batch.size() == 32 || i + 1 == kPerProducer) {
          EXPECT_EQ(q.PushAll(std::span<uint64_t>(batch)), batch.size());
          batch.clear();
        }
      }
    });
  }
  std::vector<uint64_t> seen;
  std::thread consumer([&] {
    std::vector<uint64_t> chunk;
    while (true) {
      chunk.clear();
      if (q.PopBatch(chunk, 64) == 0) break;
      seen.insert(seen.end(), chunk.begin(), chunk.end());
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<bool> present(kProducers * kPerProducer, false);
  for (uint64_t v : seen) {
    ASSERT_LT(v, present.size());
    EXPECT_FALSE(present[v]) << "duplicate item " << v;
    present[v] = true;
  }
}

// ---------------------------------------------------------------------------
// SpscRing.

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, BatchPushPopPreservesFifoOrder) {
  SpscRing<int> ring(8);
  std::vector<int> in = {1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushAll(std::span<int>(in)), 5u);
  EXPECT_EQ(ring.Size(), 5u);
  std::vector<int> out;
  EXPECT_EQ(ring.PopBatch(out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ring.Size(), 0u);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(4);
  uint64_t next_out = 0;
  std::vector<uint64_t> out;
  for (uint64_t i = 0; i < 1000; i++) {
    uint64_t v = i;
    EXPECT_TRUE(ring.Push(std::move(v)));
    if (i % 3 == 2) {
      out.clear();
      ASSERT_EQ(ring.PopBatch(out, 3), 3u);
      for (uint64_t got : out) EXPECT_EQ(got, next_out++);
    }
  }
}

TEST(SpscRingTest, TryPushAllMovesOnlyAPrefixWhenFull) {
  SpscRing<int> ring(4);
  std::vector<int> in = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.TryPushAll(std::span<int>(in)), 4u);
  EXPECT_EQ(ring.TryPushAll(std::span<int>(in).subspan(4)), 0u);
  std::vector<int> out;
  EXPECT_EQ(ring.TryPopBatch(out, 2), 2u);
  // Space freed: the suffix now fits. (A single PopBatch may return fewer
  // than everything enqueued — the consumer's cached tail index lags.)
  EXPECT_EQ(ring.TryPushAll(std::span<int>(in).subspan(4)), 2u);
  while (out.size() < 6) {
    ASSERT_GT(ring.PopBatch(out, 16), 0u);
  }
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SpscRingTest, BlockingPushAllCompletesAsConsumerDrains) {
  SpscRing<uint64_t> ring(4);
  std::vector<uint64_t> in(256);
  for (uint64_t i = 0; i < 256; i++) in[i] = i;
  std::thread producer(
      [&] { EXPECT_EQ(ring.PushAll(std::span<uint64_t>(in)), 256u); });
  std::vector<uint64_t> out;
  while (out.size() < 256) {
    std::vector<uint64_t> chunk;
    if (ring.PopBatch(chunk, 16) == 0) break;
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  producer.join();
  ASSERT_EQ(out.size(), 256u);
  for (uint64_t i = 0; i < 256; i++) EXPECT_EQ(out[i], i);
}

TEST(SpscRingTest, PopWithTimeoutTimesOutOnEmptyRing) {
  SpscRing<int> ring(4);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ring.PopWithTimeout(milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(15));
  int v = 9;
  EXPECT_TRUE(ring.Push(std::move(v)));
  EXPECT_EQ(ring.PopWithTimeout(milliseconds(20)).value_or(-1), 9);
}

TEST(SpscRingTest, CloseWhileEmptyUnblocksConsumer) {
  SpscRing<int> ring(4);
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(ring.PopBatch(out, 8), 0u);  // Returns 0 once closed+drained.
  });
  std::this_thread::sleep_for(milliseconds(10));
  ring.Close();
  consumer.join();
}

TEST(SpscRingTest, CloseWhileFullUnblocksProducerAndDrainsResidue) {
  SpscRing<int> ring(2);
  std::vector<int> in = {1, 2, 3, 4};
  std::thread producer([&] {
    // Blocks after two items; close aborts the rest.
    EXPECT_EQ(ring.PushAll(std::span<int>(in)), 2u);
  });
  std::this_thread::sleep_for(milliseconds(10));
  ring.Close();
  producer.join();
  // Items pushed before the close must still drain.
  std::vector<int> out;
  EXPECT_EQ(ring.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(ring.PopBatch(out, 8), 0u);
}

TEST(SpscRingTest, ConcurrentStreamConservesCountAndOrder) {
  constexpr uint64_t kN = 200000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < kN; i++) {
      batch.push_back(i);
      if (batch.size() == 17 || i + 1 == kN) {
        ASSERT_EQ(ring.PushAll(std::span<uint64_t>(batch)), batch.size());
        batch.clear();
      }
    }
    ring.Close();
  });
  uint64_t expected = 0;
  std::vector<uint64_t> chunk;
  while (true) {
    chunk.clear();
    const size_t n = ring.PopBatch(chunk, 23);
    if (n == 0) break;
    // SPSC: global order must be exactly the push order.
    for (uint64_t v : chunk) ASSERT_EQ(v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kN);
}

// Bursts separated by sleeps far longer than the ring's spin budget, so the
// idle side parks on every gap: after an even burst the producer sleeps and
// the consumer parks on an empty ring; during an odd burst the consumer
// sleeps after each pop and the producer parks on a full one.
TEST(SpscRingTest, StopAndGoBurstsParkBothSidesAndConserveOrder) {
  constexpr uint64_t kBursts = 60;
  constexpr uint64_t kBurst = 24;  // Three ring-fulls: the producer must wait.
  SpscRing<uint64_t> ring(8);
  std::thread producer([&] {
    uint64_t next = 0;
    for (uint64_t b = 0; b < kBursts; b++) {
      std::vector<uint64_t> burst;
      for (uint64_t i = 0; i < kBurst; i++) burst.push_back(next++);
      ASSERT_EQ(ring.PushAll(std::span<uint64_t>(burst)), kBurst);
      if (b % 2 == 0) std::this_thread::sleep_for(microseconds(300));
    }
    ring.Close();
  });
  uint64_t expected = 0;
  std::vector<uint64_t> chunk;
  while (true) {
    chunk.clear();
    const size_t n = ring.PopBatch(chunk, 5);
    if (n == 0) break;
    for (uint64_t v : chunk) ASSERT_EQ(v, expected++);
    if ((chunk.front() / kBurst) % 2 == 1) {
      std::this_thread::sleep_for(microseconds(300));
    }
  }
  producer.join();
  EXPECT_EQ(expected, kBursts * kBurst);
}

}  // namespace
}  // namespace streamlib::platform
