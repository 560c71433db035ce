// Unit tests for the serving front end's queueing machinery: the bounded
// RequestQueue (admission control, FIFO pops, deadline expiry) and the
// synthetic trace generator (determinism, arrival shapes). The batch cut
// rules run inside InferenceServer::replay and are covered by
// serving_server_test and the serving differential corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "serving/request_queue.hpp"
#include "serving/trace_gen.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

serving::InferenceRequest req(std::uint64_t id, double arrival_ns,
                              double deadline_ns = 0.0) {
  serving::InferenceRequest r;
  r.id = id;
  r.arrival_ns = arrival_ns;
  r.deadline_ns = deadline_ns;
  return r;
}

// --- RequestQueue ------------------------------------------------------------

TEST(RequestQueue, AdmissionControlBouncesWhenFull) {
  serving::RequestQueue q(2);
  EXPECT_TRUE(q.push(req(0, 10.0)));
  EXPECT_TRUE(q.push(req(1, 20.0)));
  EXPECT_FALSE(q.push(req(2, 30.0)));
  EXPECT_EQ(q.size(), 2u);

  // Draining frees capacity again.
  q.pop(1);
  EXPECT_TRUE(q.push(req(3, 40.0)));
}

TEST(RequestQueue, PopIsFifo) {
  serving::RequestQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) q.push(req(i, static_cast<double>(i)));

  const auto got = q.pop(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_EQ(got[1].id, 1u);

  // A pop larger than the backlog takes the rest, still in order.
  const auto rest = q.pop(10);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].id, 2u);
  EXPECT_EQ(rest[2].id, 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.pop(1).empty());
}

TEST(RequestQueue, ExpireDropsOnlyPastDeadlines) {
  serving::RequestQueue q(8);
  q.push(req(0, 0.0, 100.0));
  q.push(req(1, 0.0, 200.0));
  q.push(req(2, 0.0));  // no deadline — never expires
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
  // Expired slots are reclaimed lazily (their handles stay in the FIFO
  // until the front reaches them) but capacity must free eagerly, or an
  // expiry storm would wedge admission.
  serving::RequestQueue q(4);
  for (int i = 0; i < 4; ++i) {
    q.push(req(static_cast<std::uint64_t>(i), 0.0, 100.0 + i));
  }
  EXPECT_FALSE(q.push(req(9, 0.0)));
  EXPECT_EQ(q.expire(1e9).size(), 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.oldest(), nullptr);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.push(req(10u + static_cast<std::uint64_t>(i), 1.0)));
  }
  const auto got = q.pop(8);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].id, 10u);  // dead handles skipped, order preserved
}

TEST(RequestQueue, NextDeadlineSkipsPoppedEntries) {
  // The deadline min-heap is invalidated lazily: popping a request must
  // not leave its stale heap entry visible through next_deadline().
  serving::RequestQueue q(8);
  q.push(req(0, 0.0, 50.0));
  q.push(req(1, 0.0, 100.0));
  EXPECT_EQ(q.next_deadline(), 50.0);
  const auto got = q.pop(1);  // takes id 0 (deadline 50)
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(q.next_deadline(), 100.0);
  q.pop(1);
  EXPECT_EQ(q.next_deadline(), kInf);
  EXPECT_TRUE(q.expire(1e9).empty());  // nothing left to expire
}

TEST(RequestQueue, DowngradedRequestsNeverExpire) {
  serving::RequestQueue q(8);
  auto r = req(0, 0.0, 100.0);
  r.downgraded = true;  // deadline kept for accounting, stripped from expiry
  q.push(std::move(r));
  q.push(req(1, 0.0, 100.0));
  EXPECT_EQ(q.next_deadline(), 100.0);
  const auto dropped = q.expire(1e9);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].id, 1u);
  const auto got = q.pop(8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_TRUE(got[0].downgraded);
  EXPECT_GT(got[0].deadline_ns, 0.0);  // still carried for SLO accounting
}

TEST(RequestQueue, OldestIsTheFifoHead) {
  serving::RequestQueue q(8);
  EXPECT_EQ(q.oldest(), nullptr);
  q.push(req(0, 100.0, 150.0));
  q.push(req(1, 200.0));
  ASSERT_NE(q.oldest(), nullptr);
  EXPECT_EQ(q.oldest()->id, 0u);

  // Expiring the head leaves a dead handle at the front; oldest() skips it.
  ASSERT_EQ(q.expire(150.0).size(), 1u);
  ASSERT_NE(q.oldest(), nullptr);
  EXPECT_EQ(q.oldest()->id, 1u);
  q.pop(1);
  EXPECT_EQ(q.oldest(), nullptr);
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
