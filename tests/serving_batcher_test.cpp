// Unit tests for the serving front end's queueing machinery: the bounded
// RequestQueue (admission control, deadline expiry), the DynamicBatcher
// (cut rules, per-tenant FIFO), and the synthetic trace generator
// (determinism, arrival shapes). The end-to-end batching behaviour on a
// simulated device is covered by serving_server_test and the serving
// differential corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "serving/batcher.hpp"
#include "serving/request_queue.hpp"
#include "serving/trace_gen.hpp"
#include "test_helpers.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

serving::InferenceRequest req(std::uint64_t id, int tenant, double arrival_ns,
                              double deadline_ns = 0.0) {
  serving::InferenceRequest r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_ns = arrival_ns;
  r.deadline_ns = deadline_ns;
  return r;
}

const auto kAllFree = [](int) { return true; };

// --- RequestQueue ------------------------------------------------------------

TEST(RequestQueue, AdmissionControlBouncesWhenFull) {
  serving::RequestQueue q(2);
  EXPECT_TRUE(q.push(req(0, 0, 10.0)));
  EXPECT_TRUE(q.push(req(1, 0, 20.0)));
  EXPECT_FALSE(q.push(req(2, 0, 30.0)));
  EXPECT_EQ(q.size(), 2u);

  // Draining frees capacity again.
  q.pop(0, 1);
  EXPECT_TRUE(q.push(req(3, 0, 40.0)));
}

TEST(RequestQueue, PopIsPerTenantFifo) {
  serving::RequestQueue q(8);
  q.push(req(0, 0, 1.0));
  q.push(req(1, 1, 2.0));
  q.push(req(2, 0, 3.0));
  q.push(req(3, 1, 4.0));
  q.push(req(4, 0, 5.0));

  EXPECT_EQ(q.count(0), 3u);
  EXPECT_EQ(q.count(1), 2u);

  const auto got = q.pop(0, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_EQ(got[1].id, 2u);

  // Tenant 1's entries are untouched and still in order.
  const auto rest = q.pop(1, 10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].id, 1u);
  EXPECT_EQ(rest[1].id, 3u);
  EXPECT_EQ(q.size(), 1u);  // request 4 remains
}

TEST(RequestQueue, ExpireDropsOnlyPastDeadlines) {
  serving::RequestQueue q(8);
  q.push(req(0, 0, 0.0, 100.0));
  q.push(req(1, 0, 0.0, 200.0));
  q.push(req(2, 0, 0.0));  // no deadline — never expires
  EXPECT_EQ(q.next_deadline(), 100.0);

  const auto dropped = q.expire(150.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].id, 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_deadline(), 200.0);

  EXPECT_TRUE(q.expire(1e12).size() == 1u);  // request 1
  EXPECT_EQ(q.next_deadline(), kInf);        // only the deadline-free one left
  EXPECT_EQ(q.size(), 1u);
}

TEST(RequestQueue, ExpiryFreesCapacityDespiteLazyHandles) {
  // Expired slots are reclaimed lazily (their per-tenant handles stay in
  // the deque until the front reaches them) but capacity must free
  // eagerly, or an expiry storm would wedge admission.
  serving::RequestQueue q(4);
  for (int i = 0; i < 4; ++i) {
    q.push(req(static_cast<std::uint64_t>(i), 0, 0.0, 100.0 + i));
  }
  EXPECT_FALSE(q.push(req(9, 0, 0.0)));
  EXPECT_EQ(q.expire(1e9).size(), 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.count(0), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.push(req(10u + static_cast<std::uint64_t>(i), 0, 1.0)));
  }
  const auto got = q.pop(0, 8);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].id, 10u);  // dead handles skipped, order preserved
}

TEST(RequestQueue, NextDeadlineSkipsPoppedEntries) {
  // The deadline min-heap is invalidated lazily: popping a request must
  // not leave its stale heap entry visible through next_deadline().
  serving::RequestQueue q(8);
  q.push(req(0, 0, 0.0, 50.0));
  q.push(req(1, 0, 0.0, 100.0));
  EXPECT_EQ(q.next_deadline(), 50.0);
  const auto got = q.pop(0, 1);  // takes id 0 (deadline 50)
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(q.next_deadline(), 100.0);
  q.pop(0, 1);
  EXPECT_EQ(q.next_deadline(), kInf);
  EXPECT_TRUE(q.expire(1e9).empty());  // nothing left to expire
}

TEST(RequestQueue, DowngradedRequestsNeverExpire) {
  serving::RequestQueue q(8);
  auto r = req(0, 0, 0.0, 100.0);
  r.downgraded = true;  // deadline kept for accounting, stripped from expiry
  q.push(std::move(r));
  q.push(req(1, 0, 0.0, 100.0));
  EXPECT_EQ(q.next_deadline(), 100.0);
  const auto dropped = q.expire(1e9);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].id, 1u);
  const auto got = q.pop(0, 8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_TRUE(got[0].downgraded);
  EXPECT_GT(got[0].deadline_ns, 0.0);  // still carried for SLO accounting
}

TEST(RequestQueue, OldestAndTenantOrdering) {
  serving::RequestQueue q(8);
  q.push(req(0, 1, 100.0));
  q.push(req(1, 0, 200.0));
  q.push(req(2, 1, 300.0));

  ASSERT_NE(q.oldest(1), nullptr);
  EXPECT_EQ(q.oldest(1)->id, 0u);
  ASSERT_NE(q.oldest(0), nullptr);
  EXPECT_EQ(q.oldest(0)->id, 1u);
  EXPECT_EQ(q.oldest(7), nullptr);  // unknown tenant

  const auto order = q.tenants_by_oldest();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // tenant 1's head arrived first
  EXPECT_EQ(order[1], 0);

  q.pop(1, 2);
  const auto after = q.tenants_by_oldest();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], 0);
}

// --- DynamicBatcher ----------------------------------------------------------

TEST(DynamicBatcher, CutsFullBatchImmediately) {
  serving::BatchPolicy p;
  p.max_batch = 3;
  p.max_delay_us = 1e6;  // delay timeout effectively off
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  for (int i = 0; i < 4; ++i) q.push(req(static_cast<std::uint64_t>(i), 0, i));

  const auto batch = b.try_form(q, 10.0, kAllFree);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->tenant, 0);
  ASSERT_EQ(batch->size(), 3);
  EXPECT_EQ(batch->requests[0].id, 0u);
  EXPECT_EQ(batch->requests[1].id, 1u);
  EXPECT_EQ(batch->requests[2].id, 2u);
  EXPECT_EQ(q.size(), 1u);

  // One leftover request: not full, not timed out → nothing ready.
  EXPECT_FALSE(b.try_form(q, 10.0, kAllFree).has_value());
}

TEST(DynamicBatcher, DelayTimeoutCutsPartialBatch) {
  serving::BatchPolicy p;
  p.max_batch = 8;
  p.max_delay_us = 100.0;  // 100'000 ns
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  q.push(req(0, 0, 1000.0));
  q.push(req(1, 0, 2000.0));

  EXPECT_EQ(b.next_cut_ns(q), 1000.0 + 100.0 * gpusim::kUs);
  EXPECT_FALSE(b.try_form(q, 50000.0, kAllFree).has_value());

  const auto batch = b.try_form(q, 1000.0 + 100.0 * gpusim::kUs, kAllFree);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2);  // timeout flushes everything queued
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(b.next_cut_ns(q), kInf);
}

TEST(DynamicBatcher, DisabledPolicyIsImmediateBatchOne) {
  serving::BatchPolicy p;
  p.enabled = false;
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  q.push(req(0, 0, 5.0));
  q.push(req(1, 0, 6.0));

  EXPECT_EQ(b.next_cut_ns(q), 5.0);  // ready at arrival, no delay
  auto first = b.try_form(q, 5.0, kAllFree);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 1);
  EXPECT_EQ(first->requests[0].id, 0u);
  auto second = b.try_form(q, 5.0, kAllFree);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->requests[0].id, 1u);
  EXPECT_NE(first->id, second->id);
  EXPECT_EQ(b.batches_formed(), 2u);
}

TEST(DynamicBatcher, BusySlotsAreSkippedWithoutReordering) {
  serving::BatchPolicy p;
  p.max_batch = 2;
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  q.push(req(0, 0, 1.0));
  q.push(req(1, 0, 2.0));
  q.push(req(2, 1, 3.0));
  q.push(req(3, 1, 4.0));

  // Tenant 0 is busy: the batcher must serve tenant 1 and leave tenant
  // 0's requests queued in order.
  const auto busy0 = [](int tenant) { return tenant != 0; };
  const auto batch = b.try_form(q, 10.0, busy0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->tenant, 1);
  EXPECT_FALSE(b.try_form(q, 10.0, busy0).has_value());

  // Slot freed: tenant 0 cuts next, still in arrival order.
  const auto next = b.try_form(q, 10.0, kAllFree);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->tenant, 0);
  EXPECT_EQ(next->requests[0].id, 0u);
  EXPECT_EQ(next->requests[1].id, 1u);
}

TEST(DynamicBatcher, OldestTenantIsServedFirst) {
  serving::BatchPolicy p;
  p.max_batch = 4;
  p.max_delay_us = 10.0;
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  q.push(req(0, 1, 100.0));  // tenant 1 arrived first
  q.push(req(1, 0, 200.0));

  // Both tenants are timed out; the tenant whose oldest request has
  // waited longest cuts first.
  const auto batch = b.try_form(q, 1e9, kAllFree);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->tenant, 1);
}

// Deterministic seeded arrival trace through the batcher: asserts exact
// batch composition under the cut rules (the satellite contract).
TEST(DynamicBatcher, SeededTraceFormsDeterministicBatches) {
  const std::uint64_t seed = glptest::test_seed(7);
  GLP_SCOPED_SEED(seed);

  serving::TraceSpec spec;
  spec.requests = 32;
  spec.rate_rps = 4000.0;
  spec.tenants = 2;
  spec.seed = seed;
  spec.fill_inputs = false;
  const auto trace = serving::make_trace(spec, {16, 16});

  serving::BatchPolicy p;
  p.max_batch = 4;
  p.max_delay_us = 1500.0;

  // Replay the arrivals twice; the batch stream must be identical, each
  // batch single-tenant, within-batch ids strictly increasing, and the
  // per-tenant id sequence across batches strictly increasing (no
  // reordering within a tenant's stream).
  std::vector<std::vector<std::uint64_t>> runs[2];
  for (auto& batches : runs) {
    serving::DynamicBatcher b(p);
    serving::RequestQueue q(64);
    std::size_t next = 0;
    std::uint64_t last_id[2] = {0, 0};
    bool seen_any[2] = {false, false};
    double now = 0.0;
    while (next < trace.size() || !q.empty()) {
      if (next < trace.size() &&
          (q.empty() || trace[next].arrival_ns <= b.next_cut_ns(q))) {
        now = trace[next].arrival_ns;
        ASSERT_TRUE(q.push(trace[next++]));
      } else {
        now = b.next_cut_ns(q);
      }
      while (auto batch = b.try_form(q, now, kAllFree)) {
        ASSERT_GE(batch->size(), 1);
        ASSERT_LE(batch->size(), p.max_batch);
        std::vector<std::uint64_t> ids;
        for (const auto& r : batch->requests) {
          EXPECT_EQ(r.tenant, batch->tenant);
          const auto t = static_cast<std::size_t>(batch->tenant);
          if (seen_any[t]) {
            EXPECT_GT(r.id, last_id[t]) << "tenant stream reordered";
          }
          last_id[t] = r.id;
          seen_any[t] = true;
          ids.push_back(r.id);
        }
        batches.push_back(std::move(ids));
      }
    }
    std::size_t total = 0;
    for (const auto& ids : batches) total += ids.size();
    EXPECT_EQ(total, trace.size());
  }
  EXPECT_EQ(runs[0], runs[1]) << "batch composition is not seed-deterministic";
}

TEST(DynamicBatcher, ContinuousModeCutsTheMomentASlotIsFree) {
  serving::BatchPolicy p;
  p.mode = serving::BatchMode::kContinuous;
  p.max_batch = 8;
  p.max_delay_us = 1e9;  // irrelevant in continuous mode
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  q.push(req(0, 0, 1000.0));
  q.push(req(1, 0, 2000.0));

  // No delay window: everything queued is ready right now.
  EXPECT_EQ(b.next_cut_ns(q), 1000.0);
  const auto batch = b.try_form(q, 2000.0, kAllFree);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2);  // min(queued, max_batch), no waiting for full
  EXPECT_TRUE(q.empty());

  // Busy slot: requests keep queueing (the in-flight batch is the window).
  q.push(req(2, 0, 3000.0));
  const auto busy = [](int) { return false; };
  EXPECT_FALSE(b.try_form(q, 3000.0, busy).has_value());
  const auto next = b.try_form(q, 3000.0, kAllFree);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->size(), 1);
}

TEST(DynamicBatcher, ContinuousModeCapsAtMaxBatch) {
  serving::BatchPolicy p;
  p.mode = serving::BatchMode::kContinuous;
  p.max_batch = 4;
  serving::DynamicBatcher b(p);
  serving::RequestQueue q(16);
  for (int i = 0; i < 10; ++i) q.push(req(static_cast<std::uint64_t>(i), 0, i));
  const auto first = b.try_form(q, 100.0, kAllFree);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 4);
  EXPECT_EQ(first->requests[0].id, 0u);
  const auto second = b.try_form(q, 100.0, kAllFree);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->size(), 4);
  EXPECT_EQ(second->requests[0].id, 4u);  // strict arrival order across cuts
}

TEST(DynamicBatcher, StridedIdsStayDisjointAcrossShards) {
  serving::BatchPolicy p;
  p.enabled = false;
  serving::DynamicBatcher shard0(p, 0, 3);
  serving::DynamicBatcher shard1(p, 1, 3);
  serving::RequestQueue q(16);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    q.push(req(static_cast<std::uint64_t>(i), 0, i));
    ids.push_back(shard0.try_form(q, 100.0, kAllFree)->id);
    q.push(req(static_cast<std::uint64_t>(10 + i), 0, i));
    ids.push_back(shard1.try_form(q, 100.0, kAllFree)->id);
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 3, 4, 6, 7}));
}

// --- trace generation --------------------------------------------------------

TEST(TraceGen, IsSeedDeterministic) {
  serving::TraceSpec spec;
  spec.requests = 64;
  spec.tenants = 2;
  spec.seed = 99;
  const auto a = serving::make_trace(spec, {8, 8});
  const auto b = serving::make_trace(spec, {8, 8});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
    EXPECT_EQ(a[i].input, b[i].input);
  }

  spec.seed = 100;
  const auto c = serving::make_trace(spec, {8, 8});
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].arrival_ns != c[i].arrival_ns;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical arrivals";
}

TEST(TraceGen, ArrivalsAreOrderedAndShaped) {
  for (const auto arrival : {serving::ArrivalProcess::kPoisson,
                             serving::ArrivalProcess::kBursty,
                             serving::ArrivalProcess::kUniform}) {
    serving::TraceSpec spec;
    spec.requests = 500;
    spec.rate_rps = 5000.0;
    spec.arrival = arrival;
    spec.tenants = 3;
    spec.deadline_ms = 2.0;
    const auto trace = serving::make_trace(spec, {4, 4, 4});
    ASSERT_EQ(trace.size(), 500u);
    double prev = -1.0;
    for (const auto& r : trace) {
      EXPECT_GE(r.arrival_ns, prev);
      prev = r.arrival_ns;
      EXPECT_GE(r.tenant, 0);
      EXPECT_LT(r.tenant, 3);
      EXPECT_EQ(r.deadline_ns, r.arrival_ns + 2.0 * gpusim::kMs);
      EXPECT_EQ(r.input.size(), 4u);
    }
    // The realized mean rate should be within 25% of the offered load —
    // loose enough for 500 Poisson samples, tight enough to catch a
    // units slip (seconds vs nanoseconds).
    const double span_s = trace.back().arrival_ns / 1e9;
    const double realized = 500.0 / span_s;
    EXPECT_GT(realized, 0.75 * spec.rate_rps);
    EXPECT_LT(realized, 1.25 * spec.rate_rps);
  }
}

TEST(TraceGen, RejectsImpossibleBurstEnvelope) {
  serving::TraceSpec spec;
  spec.arrival = serving::ArrivalProcess::kBursty;
  spec.burst_duty = 0.5;
  spec.burst_factor = 2.5;  // duty*factor > 1: no off-phase budget left
  EXPECT_THROW(serving::make_trace(spec, {1}), glp::Error);
}

TEST(TraceGen, RejectsBadModulationParameters) {
  {
    serving::TraceSpec s;
    s.arrival = serving::ArrivalProcess::kDiurnal;
    s.diurnal_amplitude = 1.0;  // rate would hit zero in the trough
    EXPECT_THROW(serving::make_trace(s, {1}), glp::Error);
  }
  {
    serving::TraceSpec s;
    s.arrival = serving::ArrivalProcess::kHeavyTail;
    s.pareto_alpha = 1.0;  // mean gap diverges
    EXPECT_THROW(serving::make_trace(s, {1}), glp::Error);
  }
  {
    serving::TraceSpec s;
    s.arrival = serving::ArrivalProcess::kAdversarial;
    s.tenants = 2;
    s.adversary_tenant = 2;  // out of range
    EXPECT_THROW(serving::make_trace(s, {1, 1}), glp::Error);
  }
}

// The satellite contract for every arrival pattern, new generators
// included: seed-determinism, ordered arrivals, and a realized mean rate
// within ±5% of the offered load (the thinning construction makes the
// modulated envelopes unbiased, so a tight band is attainable with a
// large sample).
TEST(TraceGen, EveryPatternIsDeterministicAndHitsTheOfferedRate) {
  const serving::ArrivalProcess all[] = {
      serving::ArrivalProcess::kPoisson,   serving::ArrivalProcess::kBursty,
      serving::ArrivalProcess::kUniform,   serving::ArrivalProcess::kDiurnal,
      serving::ArrivalProcess::kFlashCrowd, serving::ArrivalProcess::kHeavyTail,
      serving::ArrivalProcess::kAdversarial};
  for (const auto arrival : all) {
    serving::TraceSpec spec;
    spec.requests = 20000;
    spec.rate_rps = 20000.0;
    spec.arrival = arrival;
    spec.tenants = 2;
    spec.seed = 1234;
    spec.fill_inputs = false;
    SCOPED_TRACE(serving::arrival_name(arrival));

    const auto a = serving::make_trace(spec, {4, 4});
    const auto b = serving::make_trace(spec, {4, 4});
    ASSERT_EQ(a.size(), 20000u);
    ASSERT_EQ(b.size(), a.size());
    double prev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].arrival_ns, b[i].arrival_ns) << "not seed-deterministic";
      ASSERT_EQ(a[i].tenant, b[i].tenant);
      ASSERT_GE(a[i].arrival_ns, prev);
      ASSERT_GT(a[i].arrival_ns, 0.0);
      prev = a[i].arrival_ns;
    }
    const double realized =
        static_cast<double>(a.size()) / (a.back().arrival_ns / 1e9);
    EXPECT_GT(realized, 0.95 * spec.rate_rps)
        << "realized " << realized << " rps";
    EXPECT_LT(realized, 1.05 * spec.rate_rps)
        << "realized " << realized << " rps";
  }
}

TEST(TraceGen, HeavyTailGapsAreHeavierThanExponential) {
  serving::TraceSpec spec;
  spec.requests = 20000;
  spec.rate_rps = 20000.0;
  spec.arrival = serving::ArrivalProcess::kHeavyTail;
  spec.fill_inputs = false;
  const auto trace = serving::make_trace(spec, {1});
  const double mean_gap = trace.back().arrival_ns / trace.size();
  double max_gap = 0.0;
  double prev = 0.0;
  for (const auto& r : trace) {
    max_gap = std::max(max_gap, r.arrival_ns - prev);
    prev = r.arrival_ns;
  }
  // An exponential's max over 20k draws concentrates near mean*ln(20k)
  // ≈ 10x the mean; Pareto(2.5)'s max is far out in the tail.
  EXPECT_GT(max_gap, 20.0 * mean_gap);
}

TEST(TraceGen, AdversarialSpikesBelongToTheAdversary) {
  serving::TraceSpec spec;
  spec.requests = 5000;
  spec.rate_rps = 50000.0;
  spec.arrival = serving::ArrivalProcess::kAdversarial;
  spec.tenants = 3;
  spec.adversary_tenant = 2;
  spec.fill_inputs = false;
  const auto trace = serving::make_trace(spec, {1, 1, 1});

  const double period = spec.flash_period_ms * gpusim::kMs;
  std::size_t spike = 0, spike_adversary = 0;
  for (const auto& r : trace) {
    const double phase = std::fmod(r.arrival_ns, period) / period;
    if (phase < spec.flash_duty) {
      ++spike;
      if (r.tenant == 2) ++spike_adversary;
    }
  }
  ASSERT_GT(spike, 100u);  // the spike windows dominate arrivals by design
  EXPECT_EQ(spike_adversary, spike)
      << "spike traffic leaked to non-adversary tenants";
  // Background (off-spike) traffic still reaches the other tenants.
  bool other = false;
  for (const auto& r : trace) other = other || r.tenant != 2;
  EXPECT_TRUE(other);
}

}  // namespace
