// glp::MpmcRing (the lock-free producer→server handoff) and
// glp::TokenBucket (the deterministic QoS meter): single-threaded FIFO
// semantics, full/empty edges, lap wrap-around, and — the part a
// single-threaded test cannot fake — multi-producer/multi-consumer
// stress with a no-loss/no-duplication ledger. The stress tests are the
// payload of the CI sanitizer job: TSan-less, they still surface torn
// publishes and ABA bugs as lost or duplicated values.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mpmc_ring.hpp"
#include "common/token_bucket.hpp"

namespace {

TEST(MpmcRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(glp::MpmcRing<int>(1).capacity(), 2u);
  EXPECT_EQ(glp::MpmcRing<int>(2).capacity(), 2u);
  EXPECT_EQ(glp::MpmcRing<int>(3).capacity(), 4u);
  EXPECT_EQ(glp::MpmcRing<int>(64).capacity(), 64u);
  EXPECT_EQ(glp::MpmcRing<int>(65).capacity(), 128u);
}

TEST(MpmcRing, FifoWithFullAndEmptyEdges) {
  glp::MpmcRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));  // empty at birth
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: bounce, don't block
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // strict FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));  // drained
}

TEST(MpmcRing, SurvivesManyLapsOfWrapAround) {
  glp::MpmcRing<std::uint64_t> ring(4);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, i);
  }
}

TEST(MpmcRing, MoveOnlyPayload) {
  glp::MpmcRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

// A rejected push must not consume the caller's value: retry loops like
// `while (!ring.try_push(std::move(v)))` re-push the same object, so a
// by-value parameter that moves on the *failed* attempt would enqueue a
// hollowed-out payload on the retry.
TEST(MpmcRing, FailedPushLeavesTheValueIntact) {
  glp::MpmcRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::vector<int>{1}));
  ASSERT_TRUE(ring.try_push(std::vector<int>{2}));
  std::vector<int> payload{3, 4, 5};
  ASSERT_FALSE(ring.try_push(std::move(payload)));  // full
  EXPECT_EQ(payload.size(), 3u);                    // NOT moved-from
  std::vector<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_push(std::move(payload)));
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5}));
}

// Multi-producer stress against a deliberately tiny ring so the full
// path and CAS retry loops are exercised constantly. Every produced
// value is unique; the ledger must come back exactly once each.
TEST(MpmcRing, MultiProducerMultiConsumerLosesAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  glp::MpmcRing<std::uint64_t> ring(64);

  std::atomic<bool> done{false};
  std::vector<std::vector<std::uint64_t>> drained(kConsumers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t v;
      for (;;) {
        if (ring.try_pop(v)) {
          drained[static_cast<std::size_t>(c)].push_back(v);
        } else if (done.load(std::memory_order_acquire)) {
          // Producers finished; drain the residue then leave.
          while (ring.try_pop(v)) {
            drained[static_cast<std::size_t>(c)].push_back(v);
          }
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& d : drained) all.insert(all.end(), d.begin(), d.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "value lost or duplicated near " << i;
  }
}

// With a single consumer, each producer's values must drain in the order
// that producer pushed them (the ring never reorders one thread's items).
TEST(MpmcRing, SingleConsumerPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 10000;
  glp::MpmcRing<std::uint64_t> ring(32);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t drained = 0;
  std::uint64_t v;
  while (drained < kProducers * kPerProducer) {
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t p = v / kPerProducer;
    const std::uint64_t i = v % kPerProducer;
    ASSERT_EQ(i, next[p]) << "producer " << p << " items reordered";
    ++next[p];
    ++drained;
  }
  for (auto& t : producers) t.join();
}

TEST(TokenBucket, DisabledBucketAlwaysGrants) {
  glp::TokenBucket b;  // rate 0 = no contract
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_take(0.0));
}

TEST(TokenBucket, BurstBoundsTheInitialGrant) {
  glp::TokenBucket b(1000.0, 4.0);  // 1k tokens/s, depth 4
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_take(0.0));
  EXPECT_FALSE(b.try_take(0.0));  // dry until time passes
}

TEST(TokenBucket, RefillsContinuouslyAtTheContractedRate) {
  glp::TokenBucket b(1000.0, 1.0);  // one token per millisecond
  EXPECT_TRUE(b.try_take(0.0));
  EXPECT_FALSE(b.try_take(0.5e6));  // 0.5 ms: half a token
  EXPECT_TRUE(b.try_take(1.0e6));   // 1 ms: refilled
  EXPECT_FALSE(b.try_take(1.0e6));  // same instant: dry again
}

TEST(TokenBucket, IdleTimeClampsToBurstDepth) {
  glp::TokenBucket b(1000.0, 3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.try_take(0.0));
  // Ten idle seconds would mint 10k tokens; depth caps it at 3.
  EXPECT_DOUBLE_EQ(b.available(10e9), 3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.try_take(10e9));
  EXPECT_FALSE(b.try_take(10e9));
}

TEST(TokenBucket, DeterministicAcrossIdenticalClocks) {
  // Same take schedule → same decisions, run to run (the property the
  // serving admission pipeline leans on).
  const auto run = [] {
    glp::TokenBucket b(5000.0, 2.0);
    std::vector<bool> granted;
    for (int i = 0; i < 64; ++i) {
      granted.push_back(b.try_take(static_cast<double>(i) * 87e3));
    }
    return granted;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
