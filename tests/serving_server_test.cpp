// End-to-end InferenceServer tests on short deterministic traces: the
// replay loop serves everything it admits, stats are self-consistent,
// batches are cut by the continuous-batching rules, deadlines expire,
// admission control bounces overload, tenant tags land in the simulated
// timeline, completions never reorder within a tenant, and the
// tenant-sliced scheduler beats serial dispatch at saturating load.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "serving/model_zoo.hpp"
#include "serving/server.hpp"
#include "test_helpers.hpp"
#include "testing/race_checker.hpp"

namespace {

std::vector<serving::TenantModel> two_tenants() {
  serving::TenantModel a;
  a.name = "tiny_cnn";
  a.spec = serving::tiny_cnn(1);
  serving::TenantModel b;
  b.name = "mlp";
  b.spec = serving::mlp(1);
  return {std::move(a), std::move(b)};
}

std::vector<std::size_t> sizes_of(const std::vector<serving::TenantModel>& models) {
  std::vector<std::size_t> sizes;
  for (const auto& m : models) {
    const auto& d = m.spec.layers.front().params.dataset;
    sizes.push_back(static_cast<std::size_t>(d.channels) * d.height * d.width);
  }
  return sizes;
}

/// A hand-built timing-only request (no input payload).
serving::InferenceRequest at(std::uint64_t id, int tenant, double arrival_ns) {
  serving::InferenceRequest r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_ns = arrival_ns;
  return r;
}

/// Replay `trace` on a timing-only P100 server; returns the records
/// indexed by request id (every request must be served).
std::vector<serving::RequestRecord> replay_by_id(
    std::vector<serving::TenantModel> models,
    std::vector<serving::InferenceRequest> trace, int max_batch, int slots) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.batch.max_batch = max_batch;
  opts.slots = slots;
  serving::InferenceServer server(ctx, std::move(models), opts);
  std::vector<serving::RequestRecord> by_id(trace.size());
  for (auto& r : server.replay(std::move(trace))) {
    EXPECT_EQ(r.outcome, serving::Outcome::kServed) << "request " << r.id;
    by_id.at(r.id) = std::move(r);
  }
  return by_id;
}

std::vector<serving::TenantModel> one_tenant() {
  serving::TenantModel m;
  m.name = "tiny_cnn";
  m.spec = serving::tiny_cnn(1);
  return {std::move(m)};
}

TEST(InferenceServer, ServesEveryAdmittedRequest) {
  const auto models = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 40;
  ts.rate_rps = 4000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(11);
  GLP_SCOPED_SEED(ts.seed);
  const auto trace = serving::make_trace(ts, sizes_of(models));

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.queue_capacity = 64;
  opts.keep_outputs = true;
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(trace);

  ASSERT_EQ(records.size(), trace.size());
  const auto stats = serving::InferenceServer::summarize(records);
  EXPECT_EQ(stats.served, trace.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_GE(stats.mean_batch, 1.0);
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, serving::Outcome::kServed);
    EXPECT_GE(r.issue_ns, r.arrival_ns);
    EXPECT_GT(r.completion_ns, r.issue_ns);
    EXPECT_GE(r.batch_size, 1);
    EXPECT_FALSE(r.output.empty());
  }

  // summarize() on a filtered record set (per-tenant analysis) must count
  // distinct batch ids, not assume dense ids from zero.
  for (int tenant = 0; tenant < 2; ++tenant) {
    std::vector<serving::RequestRecord> sub;
    std::set<std::uint64_t> ids;
    for (const auto& r : records) {
      if (r.tenant != tenant) continue;
      sub.push_back(r);
      ids.insert(r.batch_id);
    }
    ASSERT_FALSE(sub.empty());
    const auto ts = serving::InferenceServer::summarize(sub);
    EXPECT_EQ(ts.batches, ids.size());
    EXPECT_GE(ts.mean_batch, 1.0);
  }
}

TEST(InferenceServer, CompletionsNeverReorderWithinATenant) {
  const auto models = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 60;
  ts.rate_rps = 12000.0;  // congested: batches queue behind busy slots
  ts.tenants = 2;
  ts.seed = glptest::test_seed(12);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.queue_capacity = 128;
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));

  // `records` is in completion order; within a tenant, arrivals (and ids,
  // which the generator assigns in arrival order) must be non-decreasing.
  std::map<int, gpusim::SimTime> last_arrival;
  for (const auto& r : records) {
    if (r.outcome != serving::Outcome::kServed) continue;
    auto it = last_arrival.find(r.tenant);
    if (it != last_arrival.end()) {
      EXPECT_GE(r.arrival_ns, it->second)
          << "request " << r.id << " of tenant " << r.tenant
          << " completed before an earlier arrival";
    }
    last_arrival[r.tenant] = r.arrival_ns;
  }
}

TEST(InferenceServer, TimelineCarriesTenantTagsAndStaysRaceFree) {
  const auto props = gpusim::DeviceTable::p100();
  const auto models = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 30;
  ts.rate_rps = 8000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(13);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);

  scuda::Context ctx(props);
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.record_timeline = true;
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));
  ctx.device().synchronize();

  std::map<int, std::size_t> kernels_per_tenant;
  for (const auto& k : ctx.device().timeline().kernels()) {
    kernels_per_tenant[k.tenant] += 1;
  }
  // Both tenants' batches must have run tagged kernels; warmup and other
  // untagged activity (-1) may also be present.
  EXPECT_GT(kernels_per_tenant[0], 0u);
  EXPECT_GT(kernels_per_tenant[1], 0u);

  // The PR-1 race checker on a *serving* timeline: stream FIFO order,
  // event ordering and concurrency caps all hold for the scheduled replay.
  const glpfuzz::RaceReport races =
      glpfuzz::check_timeline(ctx.device().timeline(), props);
  EXPECT_TRUE(races.clean()) << races.to_string();
  EXPECT_GT(races.ops_checked, 0u);
  EXPECT_EQ(serving::InferenceServer::summarize(records).served,
            static_cast<std::size_t>(ts.requests));
}

TEST(InferenceServer, OneRequestBatchesRecordOnlyTheirCompletionEvent) {
  // Under light load each batch holds one request, so each steady scope
  // runs one lane, on the slot's home stream, with no fork or join: the
  // only event a batch records is its completion event.
  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  serving::InferenceServer server(ctx, one_tenant(), opts);
  server.prewarm();
  constexpr int kRequests = 12;
  std::vector<serving::InferenceRequest> trace;
  for (int i = 0; i < kRequests; ++i) {
    trace.push_back(at(static_cast<std::uint64_t>(i), 0, i * 1e6));  // 1 ms
  }
  gpusim::DeviceEngine& dev = ctx.device();
  const gpusim::EventId before = dev.record_event(gpusim::kDefaultStream);
  const auto records = server.replay(std::move(trace));
  const gpusim::EventId after = dev.record_event(gpusim::kDefaultStream);

  std::set<std::uint64_t> batches;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, serving::Outcome::kServed) << "request " << r.id;
    EXPECT_EQ(r.batch_size, 1) << "request " << r.id;
    batches.insert(r.batch_id);
  }
  ASSERT_EQ(batches.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(after - before - 1, batches.size());
}

TEST(InferenceServer, HomeStreamFallbacksAreCounted) {
  // A slot whose home-stream creation fails stays on the default stream:
  // a fault degradation the fallback count reports, while the replay
  // still serves every request.
  const auto models = two_tenants();
  scuda::Context ctx(gpusim::DeviceTable::p100());
  scuda::FaultConfig faults;
  faults.stream_create_failure_rate = 1.0;
  ctx.faults().arm(faults);
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.slots = 2;
  serving::InferenceServer server(ctx, models, opts);
  ctx.faults().disarm();
  EXPECT_GE(server.serial_fallback_count(),
            static_cast<std::size_t>(opts.slots));

  serving::TraceSpec ts;
  ts.requests = 30;
  ts.rate_rps = 8000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(15);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));
  ASSERT_EQ(records.size(), static_cast<std::size_t>(ts.requests));
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, serving::Outcome::kServed) << "request " << r.id;
  }
}

TEST(InferenceServer, DeadlinesExpireQueuedRequests) {
  std::vector<serving::TenantModel> models;
  serving::TenantModel m;
  m.name = "small_cnn";
  m.spec = serving::small_cnn(1);
  models.push_back(std::move(m));

  serving::TraceSpec ts;
  ts.requests = 80;
  ts.rate_rps = 40000.0;   // far beyond one tenant's service rate
  ts.deadline_ms = 1.0;    // tight deadline
  ts.seed = glptest::test_seed(14);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.queue_capacity = 256;  // ample: drops must come from deadlines
  // Lane coalescing lifts the service rate past this trace's offered
  // load; pin it off so the backlog (and the expiry path under test)
  // actually builds up.
  opts.coalesce_lanes = false;
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));

  const auto stats = serving::InferenceServer::summarize(records);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.expired, 0u);
  EXPECT_GT(stats.served, 0u);
  EXPECT_EQ(stats.served + stats.expired, static_cast<std::size_t>(ts.requests));
  std::size_t late = 0;
  for (const auto& r : records) {
    EXPECT_GT(r.deadline_ns, 0.0);  // the whole trace carries deadlines
    if (r.outcome == serving::Outcome::kExpired) {
      EXPECT_EQ(r.completion_ns, 0.0);  // never issued
    } else if (r.completion_ns > r.deadline_ns) {
      ++late;  // issued in time but finished past the deadline
    }
  }
  EXPECT_EQ(stats.deadline_misses, late);
  EXPECT_LE(stats.deadline_misses, stats.served);
}

TEST(InferenceServer, AdmissionControlBouncesOverload) {
  std::vector<serving::TenantModel> models;
  serving::TenantModel m;
  m.name = "small_cnn";
  m.spec = serving::small_cnn(1);
  models.push_back(std::move(m));

  serving::TraceSpec ts;
  ts.requests = 80;
  ts.rate_rps = 60000.0;
  ts.seed = glptest::test_seed(15);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.queue_capacity = 4;  // tiny queue: overload must bounce
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));

  const auto stats = serving::InferenceServer::summarize(records);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GT(stats.served, 0u);
  EXPECT_EQ(stats.offered, static_cast<std::size_t>(ts.requests));
}

TEST(Percentile, NearestRankReturnsActualSamples) {
  const std::vector<double> one{7.0};
  EXPECT_EQ(serving::percentile_nearest_rank(one, 0.5), 7.0);
  EXPECT_EQ(serving::percentile_nearest_rank(one, 0.99), 7.0);

  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(serving::percentile_nearest_rank(four, 0.50), 2.0);  // ceil(2)=2nd
  EXPECT_EQ(serving::percentile_nearest_rank(four, 0.75), 3.0);
  EXPECT_EQ(serving::percentile_nearest_rank(four, 0.76), 4.0);  // ceil(3.04)=4th
  EXPECT_EQ(serving::percentile_nearest_rank(four, 0.99), 4.0);
  EXPECT_EQ(serving::percentile_nearest_rank(four, 1.0), 4.0);
  EXPECT_EQ(serving::percentile_nearest_rank({}, 0.5), 0.0);

  // Never interpolates: every quantile of a two-point set is one of the
  // two samples, not their midpoint.
  const std::vector<double> two{10.0, 20.0};
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double v = serving::percentile_nearest_rank(two, q);
    EXPECT_TRUE(v == 10.0 || v == 20.0) << "q=" << q << " gave " << v;
  }
}

TEST(InferenceServer, SloAwareAdmissionShedsInsteadOfServingLate) {
  std::vector<serving::TenantModel> models;
  serving::TenantModel m;
  m.name = "small_cnn";
  m.spec = serving::small_cnn(1);
  models.push_back(std::move(m));

  serving::TraceSpec ts;
  ts.requests = 120;
  ts.rate_rps = 60000.0;  // far past the uncoalesced service rate
  ts.deadline_ms = 1.0;
  ts.seed = glptest::test_seed(21);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);
  const auto trace = serving::make_trace(ts, sizes_of(models));

  const auto run = [&](bool slo_aware, bool downgrade) {
    scuda::Context ctx(gpusim::DeviceTable::p100());
    serving::ServerOptions opts;
    opts.mode = kern::ComputeMode::kTimingOnly;
    opts.queue_capacity = 256;
    opts.coalesce_lanes = false;  // keep the server overloaded
    opts.admission.slo_aware = slo_aware;
    opts.admission.downgrade = downgrade;
    serving::InferenceServer server(ctx, models, opts);
    return server.replay(trace);
  };

  const auto base = serving::InferenceServer::summarize(run(false, false));
  const auto shed = serving::InferenceServer::summarize(run(true, false));
  ASSERT_GT(base.expired, 0u);  // sanity: the load is genuinely infeasible
  EXPECT_GT(shed.shed, 0u) << "SLO-aware admission never shed";
  // Shedding hopeless requests at the door must not reduce *useful* work:
  // on-time service is no worse, and attainment over what was served
  // improves (the admitted set is the feasible set).
  EXPECT_GE(shed.served - shed.deadline_misses,
            base.served - base.deadline_misses);
  EXPECT_GE(shed.slo_attainment, base.slo_attainment);
  // Fewer requests die in the queue after burning wait time there.
  EXPECT_LT(shed.expired, base.expired);
  EXPECT_EQ(shed.offered, static_cast<std::size_t>(ts.requests));
  EXPECT_EQ(shed.served + shed.expired + shed.shed + shed.rejected,
            shed.offered);

  // Determinism: the same trace sheds the same requests.
  const auto again = run(true, false);
  const auto first = run(true, false);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].id, first[i].id);
    EXPECT_EQ(again[i].outcome, first[i].outcome);
  }

  // Downgrade mode converts sheds into best-effort service: nothing
  // expires (downgraded requests are exempt), and the downgrades are
  // still charged against SLO attainment.
  const auto down = serving::InferenceServer::summarize(run(true, true));
  EXPECT_GT(down.downgraded, 0u);
  EXPECT_GT(down.served, shed.served);
  EXPECT_LT(down.slo_attainment, 1.0);
}

TEST(InferenceServer, TokenBucketShedsTheNoisyTenantFirst) {
  const auto models_base = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 200;
  ts.rate_rps = 30000.0;
  ts.tenants = 2;
  ts.arrival = serving::ArrivalProcess::kAdversarial;
  ts.adversary_tenant = 0;  // tenant 0 hammers the service in spikes
  // Short spike period so this small trace spans several on/off cycles
  // (the default 100 ms period would swallow the whole trace in one
  // spike and starve tenant 1 of arrivals entirely).
  ts.flash_period_ms = 1.0;
  ts.flash_duty = 0.2;
  ts.flash_factor = 4.0;
  ts.seed = glptest::test_seed(22);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);

  auto models = models_base;
  models[0].qos.rate_rps = 2000.0;  // contract far below the spike rate
  models[0].qos.burst = 4.0;

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.queue_capacity = 8;  // pressure builds fast
  opts.coalesce_lanes = false;
  serving::InferenceServer server(ctx, models, opts);
  const auto records = server.replay(serving::make_trace(ts, sizes_of(models)));
  const auto stats = serving::InferenceServer::summarize(records);

  ASSERT_EQ(stats.tenants.size(), 2u);
  const auto& noisy = stats.tenants[0];
  const auto& polite = stats.tenants[1];
  EXPECT_GT(noisy.shed, 0u) << "over-contract tenant never shed";
  EXPECT_EQ(polite.shed, 0u) << "in-contract tenant shed " << polite.shed;
  EXPECT_GT(polite.served, 0u);
  // Per-tenant rows must sum back to the totals.
  EXPECT_EQ(noisy.offered + polite.offered, stats.offered);
  EXPECT_EQ(noisy.served + polite.served, stats.served);
  EXPECT_EQ(noisy.shed + polite.shed, stats.shed);
}

TEST(InferenceServer, LaneCoalescingIsBitExactWithFewerKernelLaunches) {
  const auto models = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 40;
  ts.rate_rps = 6000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(23);
  GLP_SCOPED_SEED(ts.seed);
  const auto trace = serving::make_trace(ts, sizes_of(models));

  struct Run {
    std::vector<serving::RequestRecord> records;
    std::size_t kernels = 0;
  };
  const auto run = [&](bool coalesce) {
    scuda::Context ctx(gpusim::DeviceTable::p100());
    serving::ServerOptions opts;
    opts.keep_outputs = true;
    opts.record_timeline = true;
    opts.coalesce_lanes = coalesce;
    serving::InferenceServer server(ctx, models, opts);
    Run r;
    r.records = server.replay(trace);
    ctx.device().synchronize();
    r.kernels = ctx.device().timeline().kernels().size();
    return r;
  };

  const Run off = run(false);
  const Run on = run(true);
  ASSERT_EQ(off.records.size(), trace.size());
  ASSERT_EQ(on.records.size(), trace.size());
  EXPECT_LT(on.kernels, off.kernels)
      << "coalescing did not reduce launches: " << on.kernels << " vs "
      << off.kernels;

  std::map<std::uint64_t, const serving::RequestRecord*> by_id;
  for (const auto& r : off.records) by_id[r.id] = &r;
  for (const auto& r : on.records) {
    const auto* ref = by_id.at(r.id);
    ASSERT_EQ(r.outcome, serving::Outcome::kServed);
    ASSERT_EQ(ref->output.size(), r.output.size());
    EXPECT_EQ(std::memcmp(r.output.data(), ref->output.data(),
                          r.output.size() * sizeof(float)),
              0)
        << "request " << r.id << " output changed under coalescing";
  }
}

TEST(InferenceServer, ContinuousBatchingServesEverythingWithoutWindows) {
  const auto models = two_tenants();
  serving::TraceSpec ts;
  ts.requests = 120;
  ts.rate_rps = 20000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(24);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);
  const auto trace = serving::make_trace(ts, sizes_of(models));

  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.mode = kern::ComputeMode::kTimingOnly;
  opts.queue_capacity = 256;
  serving::InferenceServer server(ctx, models, opts);
  const auto continuous = serving::InferenceServer::summarize(server.replay(trace));
  ASSERT_EQ(continuous.served, trace.size());
  EXPECT_GE(continuous.mean_batch, 1.0);
}

TEST(InferenceServer, RejectsNonPositiveMaxBatch) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  serving::ServerOptions opts;
  opts.batch.max_batch = 0;
  EXPECT_THROW(serving::InferenceServer(ctx, two_tenants(), opts), glp::Error);
}

// --- continuous-batching cut rules ------------------------------------------

TEST(BatchCut, BacklogIsCutIntoMaxBatchSizedBatchesInArrivalOrder) {
  // Ten requests queued at once, max_batch 4: the slot takes 4, then 4,
  // then the remaining 2, each cut as the previous batch frees the slot.
  std::vector<serving::InferenceRequest> trace;
  for (std::uint64_t i = 0; i < 10; ++i) trace.push_back(at(i, 0, 0.0));
  const auto recs = replay_by_id(one_tenant(), trace, /*max_batch=*/4, 1);

  const std::vector<int> want_size{4, 4, 4, 4, 4, 4, 4, 4, 2, 2};
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].batch_size, want_size[i]) << "request " << i;
    const std::size_t head = i - i % 4;  // first request of i's batch
    EXPECT_EQ(recs[i].batch_id, recs[head].batch_id) << "request " << i;
    EXPECT_EQ(recs[i].issue_ns, recs[head].issue_ns) << "request " << i;
  }
  EXPECT_EQ(recs[0].issue_ns, 0.0);  // the first cut does not wait
  for (const std::size_t head : {4, 8}) {
    EXPECT_NE(recs[head].batch_id, recs[head - 4].batch_id);
    EXPECT_GE(recs[head].issue_ns, recs[head - 4].completion_ns)
        << "batch at request " << head << " issued on a busy slot";
  }
}

TEST(BatchCut, OldestTenantIssuesFirstOnASharedSlot) {
  // One slot for two tenants. Request 0 (tenant 0) occupies it; request 1
  // (tenant 1) and request 2 (tenant 0) queue behind it. When the slot
  // frees, tenant 1's oldest request arrived first, so it cuts first
  // although tenant 0 has the lower index.
  const auto recs = replay_by_id(
      two_tenants(), {at(0, 0, 0.0), at(1, 1, 1.0), at(2, 0, 2.0)},
      /*max_batch=*/8, /*slots=*/1);
  EXPECT_EQ(recs[0].issue_ns, 0.0);
  EXPECT_GE(recs[1].issue_ns, recs[0].completion_ns);
  EXPECT_GE(recs[2].issue_ns, recs[1].completion_ns)
      << "tenant 0 cut before tenant 1's older request";
  for (const auto& r : recs) EXPECT_EQ(r.batch_size, 1);
}

TEST(BatchCut, BusySlotKeepsRequestsQueuedInOrder) {
  // Request 0 is cut alone; 1-3 arrive while its batch is in flight, stay
  // queued, and the next cut takes all three at once, in arrival order.
  const auto recs = replay_by_id(
      one_tenant(), {at(0, 0, 0.0), at(1, 0, 1.0), at(2, 0, 2.0), at(3, 0, 3.0)},
      /*max_batch=*/8, 1);
  EXPECT_EQ(recs[0].batch_size, 1);
  EXPECT_GE(recs[1].issue_ns, recs[0].completion_ns);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].batch_size, 3) << "request " << i;
    EXPECT_EQ(recs[i].batch_id, recs[1].batch_id) << "request " << i;
    EXPECT_EQ(recs[i].issue_ns, recs[1].issue_ns) << "request " << i;
  }
  EXPECT_NE(recs[1].batch_id, recs[0].batch_id);
}

// The acceptance-criterion shape, small enough for CI: at saturating
// offered load the tenant-sliced scheduler must beat serial dispatch on
// both p99 latency and throughput.
TEST(InferenceServer, SchedulerBeatsSerialAtSaturatingLoad) {
  // tiny_cnn + small_cnn: heavy enough that serial dispatch saturates
  // around 8k req/s while the sliced stream pool keeps absorbing load.
  std::vector<serving::TenantModel> models;
  serving::TenantModel a;
  a.name = "tiny_cnn";
  a.spec = serving::tiny_cnn(1);
  models.push_back(std::move(a));
  serving::TenantModel b;
  b.name = "small_cnn";
  b.spec = serving::small_cnn(1);
  models.push_back(std::move(b));

  serving::TraceSpec ts;
  ts.requests = 150;
  ts.rate_rps = 16000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(16);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);
  const auto trace = serving::make_trace(ts, sizes_of(models));

  const auto run = [&](bool use_scheduler) {
    scuda::Context ctx(gpusim::DeviceTable::p100());
    serving::ServerOptions opts;
    opts.mode = kern::ComputeMode::kTimingOnly;
    opts.use_scheduler = use_scheduler;
    opts.queue_capacity = 256;
    serving::InferenceServer server(ctx, models, opts);
    return serving::InferenceServer::summarize(server.replay(trace));
  };

  const auto serial = run(false);
  const auto glp = run(true);
  ASSERT_EQ(serial.served, trace.size());
  ASSERT_EQ(glp.served, trace.size());
  EXPECT_LT(glp.p99_ms, serial.p99_ms)
      << "scheduler p99 " << glp.p99_ms << " vs serial " << serial.p99_ms;
  EXPECT_GT(glp.throughput_rps, serial.throughput_rps)
      << "scheduler " << glp.throughput_rps << " rps vs serial "
      << serial.throughput_rps;
}

// --- nearest-rank percentiles ----------------------------------------------

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_EQ(serving::percentile_nearest_rank({}, 0.50), 0.0);
  EXPECT_EQ(serving::percentile_nearest_rank({}, 0.99), 0.0);
}

TEST(Percentile, SingleRecordDegeneratesToThatRecord) {
  const std::vector<double> one = {3.5};
  for (const double q : {0.0, 0.01, 0.50, 0.99, 1.0}) {
    EXPECT_EQ(serving::percentile_nearest_rank(one, q), 3.5) << "q=" << q;
  }
}

TEST(Percentile, DegenerateQuantilesClampToEndpoints) {
  const std::vector<double> s = {1.0, 2.0, 3.0, 4.0};
  // q <= 0 (including NaN, which fails every comparison) must not reach
  // the unsigned cast; it degenerates to the minimum.
  EXPECT_EQ(serving::percentile_nearest_rank(s, 0.0), 1.0);
  EXPECT_EQ(serving::percentile_nearest_rank(s, -0.5), 1.0);
  EXPECT_EQ(serving::percentile_nearest_rank(
                s, std::numeric_limits<double>::quiet_NaN()),
            1.0);
  EXPECT_EQ(serving::percentile_nearest_rank(s, 1.0), 4.0);
  EXPECT_EQ(serving::percentile_nearest_rank(s, 2.0), 4.0);
}

TEST(Percentile, NearestRankOnSmallSamples) {
  const std::vector<double> s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(serving::percentile_nearest_rank(s, 0.25), 1.0);  // ceil(1.0) = 1
  EXPECT_EQ(serving::percentile_nearest_rank(s, 0.50), 2.0);
  EXPECT_EQ(serving::percentile_nearest_rank(s, 0.51), 3.0);
  EXPECT_EQ(serving::percentile_nearest_rank(s, 0.99), 4.0);
}

}  // namespace
