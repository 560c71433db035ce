#include "serving/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/check.hpp"

namespace serving {

namespace {
constexpr gpusim::SimTime kInf = std::numeric_limits<gpusim::SimTime>::infinity();
/// Shard-queue fill fraction above which over-budget tenants (dry token
/// bucket) are shed outright, deadline or not.
constexpr double kShedPressure = 0.75;
/// EWMA weight of each reaped batch in a tenant's service estimate.
constexpr double kEstEwma = 0.25;
}  // namespace

double percentile_nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Clamp the quantile before the size_t cast: converting a negative (or
  // NaN) double to an unsigned integer is undefined behaviour, and for a
  // 0- or 1-element sample any q degenerates to an endpoint anyway.
  if (!(q > 0.0)) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const std::size_t n = sorted.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

InferenceServer::InferenceServer(scuda::Context& ctx,
                                 std::vector<TenantModel> models,
                                 ServerOptions opts)
    : ctx_(&ctx), opts_(std::move(opts)), models_(std::move(models)) {
  GLP_REQUIRE(!models_.empty(), "server needs at least one tenant model");
  GLP_REQUIRE(opts_.slots >= 1, "server needs at least one batch slot");
  GLP_REQUIRE(opts_.batch.max_batch >= 1, "max_batch must be positive");
  GLP_REQUIRE(opts_.admission.headroom > 0.0, "admission headroom must be > 0");
  // Slot assignment is stable (tenant % slots) to preserve per-tenant
  // FIFO, so slots beyond the tenant count can never be occupied — clamp
  // them away or they would needlessly shrink every tenant's pool slice.
  opts_.slots = std::min(opts_.slots, static_cast<int>(models_.size()));

  if (opts_.use_scheduler) {
    engine_ = std::make_unique<glp4nn::Glp4nnEngine>(opts_.scheduler);
    dispatcher_ = &engine_->scheduler_for(*ctx_);
  } else {
    serial_ = std::make_unique<kern::SerialDispatcher>(*ctx_);
    dispatcher_ = serial_.get();
  }

  // One home stream per in-flight slot. The serial baseline keeps every
  // slot on the legacy default stream — that IS the baseline's bottleneck.
  homes_.reserve(static_cast<std::size_t>(opts_.slots));
  for (int s = 0; s < opts_.slots; ++s) {
    homes_.emplace_back(*ctx_);
    if (!opts_.use_scheduler) continue;
    try {
      homes_.back() = scuda::Stream::create(*ctx_);
    } catch (const scuda::StreamCreateFailed&) {
      // Injected fault: this slot keeps the default stream. Its batches
      // then serialize with everything else — timing degrades, outputs
      // are identical.
      ++home_fallbacks_;
    }
  }
  slot_busy_.assign(static_cast<std::size_t>(opts_.slots), false);

  if (opts_.coalesce_lanes) stager_ = std::make_unique<kern::Stager>();
  for (std::size_t t = 0; t < models_.size(); ++t) {
    SessionOptions so;
    so.mode = opts_.mode;
    so.weights_path = models_[t].weights;
    so.stager = stager_.get();
    if (models_.size() > 1) {
      so.name_prefix = std::string("t").append(std::to_string(t)).append(":");
    }
    sessions_.push_back(std::make_unique<InferenceSession>(
        *ctx_, *dispatcher_, models_[t].spec, so));
  }

  build_shards();

  if (opts_.record_timeline) ctx_->device().timeline().set_enabled(true);
}

void InferenceServer::build_shards() {
  shards_.clear();
  shards_.reserve(models_.size());
  for (std::size_t t = 0; t < models_.size(); ++t) {
    Shard sh;
    sh.queue = std::make_unique<RequestQueue>(opts_.queue_capacity);
    const TenantQos& qos = models_[t].qos;
    if (qos.rate_rps > 0.0) {
      const double burst = qos.burst > 0.0
                               ? qos.burst
                               : 2.0 * static_cast<double>(opts_.batch.max_batch);
      sh.bucket = glp::TokenBucket(qos.rate_rps, burst);
    }
    shards_.push_back(std::move(sh));
  }
}

std::size_t InferenceServer::total_replicas() const {
  std::size_t n = 0;
  for (const auto& s : sessions_) n += s->replica_count();
  return n;
}

double InferenceServer::service_estimate_ns(int tenant) const {
  return shards_.at(static_cast<std::size_t>(tenant)).est_ns;
}

std::size_t InferenceServer::serial_fallback_count() const {
  return home_fallbacks_ +
         (engine_ ? engine_->scheduler_for(*ctx_).serial_fallback_count() : 0);
}

void InferenceServer::prewarm() {
  if (warmed_) return;
  std::vector<int> sizes{1};
  const int top = replica_batch_for(opts_.batch.max_batch);
  for (int b = 2; b <= top; b <<= 1) sizes.push_back(b);
  gpusim::DeviceEngine& dev = ctx_->device();
  for (int t = 0; t < tenants(); ++t) {
    const int slot = t % opts_.slots;
    const gpusim::StreamId home = homes_[static_cast<std::size_t>(slot)].id();
    const auto run_once = [&](int b) {
      InferenceSession::Replica& r = sessions_[static_cast<std::size_t>(t)]
                                         ->checkout(b);
      dispatcher_->bind_dag_op({home, slot, opts_.slots, {}, stager_.get()});
      dev.set_current_tenant(t);
      sessions_[static_cast<std::size_t>(t)]->run_batch(r, {}, home);
      dev.set_current_tenant(-1);
      dispatcher_->clear_dag_op();
      dev.synchronize();
      sessions_[static_cast<std::size_t>(t)]->release(r);
    };
    for (int b : sizes) run_once(b);
    // One extra steady run of the largest replica, timed on the simulated
    // clock, seeds the admission feasibility estimate — the profiled
    // first runs above include the one-time analysis charge and would
    // wildly overestimate steady service.
    const gpusim::SimTime before = dev.host_now();
    run_once(top);
    const gpusim::SimTime elapsed = dev.host_now() - before;
    shards_[static_cast<std::size_t>(t)].est_ns =
        elapsed / static_cast<double>(top);
  }
  warmed_ = true;
}

std::optional<Outcome> InferenceServer::admit(Shard& shard, InferenceRequest& r,
                                              gpusim::SimTime now) {
  // 1. Rate contract: a dry bucket marks the tenant over budget; under
  // queue pressure its requests shed first.
  const bool in_budget = shard.bucket.try_take(now);
  if (!in_budget) {
    const double fill = static_cast<double>(shard.queue->size()) /
                        static_cast<double>(shard.queue->capacity());
    if (fill >= kShedPressure) return Outcome::kShed;
  }
  // 2. SLO feasibility: predicted completion = backlog drained at the
  // tenant's per-request service estimate, padded by the headroom factor.
  if (opts_.admission.slo_aware && r.deadline_ns > 0.0 && shard.est_ns > 0.0) {
    const double backlog = static_cast<double>(shard.queue->size() +
                                               shard.inflight_reqs + 1);
    const gpusim::SimTime predicted =
        now + opts_.admission.headroom * shard.est_ns * backlog;
    if (predicted > r.deadline_ns) {
      if (!(opts_.admission.downgrade && in_budget)) return Outcome::kShed;
      r.downgraded = true;  // served best-effort; never expires
    }
  }
  // 3. Bounded queue.
  if (!shard.queue->push(std::move(r))) return Outcome::kRejected;
  return std::nullopt;
}

void InferenceServer::issue(int tenant, gpusim::SimTime now) {
  const int slot = tenant % opts_.slots;
  GLP_CHECK(!slot_busy_[static_cast<std::size_t>(slot)]);
  Shard& shard = shards_[static_cast<std::size_t>(tenant)];
  std::vector<InferenceRequest> requests =
      shard.queue->pop(static_cast<std::size_t>(opts_.batch.max_batch));
  GLP_CHECK(!requests.empty());
  shard.inflight_reqs += requests.size();

  InferenceSession& sess = *sessions_[static_cast<std::size_t>(tenant)];
  InferenceSession::Replica& r =
      sess.checkout(static_cast<int>(requests.size()));

  std::vector<const float*> samples;
  if (!requests.front().input.empty()) {
    samples.reserve(requests.size());
    for (const InferenceRequest& req : requests) {
      GLP_REQUIRE(req.input.size() == sess.sample_input_size(),
                  "request " << req.id << " input size " << req.input.size()
                             << " != model sample size "
                             << sess.sample_input_size());
      samples.push_back(req.input.data());
    }
  }

  gpusim::DeviceEngine& dev = ctx_->device();
  const gpusim::StreamId home = homes_[static_cast<std::size_t>(slot)].id();
  dispatcher_->bind_dag_op({home, slot, opts_.slots, {}, stager_.get()});
  dev.set_current_tenant(tenant);
  sess.run_batch(r, samples, home);
  const gpusim::EventId done = dev.record_event(home);
  dev.set_current_tenant(-1);
  dispatcher_->clear_dag_op();

  slot_busy_[static_cast<std::size_t>(slot)] = true;
  InFlight f;
  f.slot = slot;
  f.tenant = tenant;
  f.batch_id = next_batch_id_++;
  f.requests = std::move(requests);
  f.replica = &r;
  f.done = done;
  f.issue_ns = now;
  inflight_.push_back(std::move(f));
}

bool InferenceServer::reap(std::vector<RequestRecord>& records) {
  gpusim::DeviceEngine& dev = ctx_->device();
  bool any = false;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (!dev.event_complete(it->done)) {
      ++it;
      continue;
    }
    const gpusim::SimTime completion = dev.event_time(it->done);
    InferenceSession& sess = *sessions_[static_cast<std::size_t>(it->tenant)];
    const std::size_t n = it->requests.size();
    for (std::size_t i = 0; i < n; ++i) {
      const InferenceRequest& req = it->requests[i];
      RequestRecord rec;
      rec.id = req.id;
      rec.tenant = req.tenant;
      rec.outcome = Outcome::kServed;
      rec.arrival_ns = req.arrival_ns - t0_;
      rec.deadline_ns = req.deadline_ns > 0.0 ? req.deadline_ns - t0_ : 0.0;
      rec.downgraded = req.downgraded;
      rec.issue_ns = it->issue_ns - t0_;
      rec.completion_ns = completion - t0_;
      rec.batch_id = it->batch_id;
      rec.batch_size = static_cast<int>(n);
      if (opts_.keep_outputs && opts_.mode == kern::ComputeMode::kNumeric) {
        const float* out = sess.output_of(*it->replica, static_cast<int>(i));
        rec.output.assign(out, out + sess.sample_output_size());
      }
      records.push_back(std::move(rec));
    }
    // Feed the admission estimator: per-request service within this batch.
    Shard& shard = shards_[static_cast<std::size_t>(it->tenant)];
    GLP_CHECK(shard.inflight_reqs >= n);
    shard.inflight_reqs -= n;
    const double per_req =
        (completion - it->issue_ns) / static_cast<double>(n);
    shard.est_ns = shard.est_ns <= 0.0
                       ? per_req
                       : shard.est_ns + kEstEwma * (per_req - shard.est_ns);
    sess.release(*it->replica);
    slot_busy_[static_cast<std::size_t>(it->slot)] = false;
    it = inflight_.erase(it);
    any = true;
  }
  return any;
}

gpusim::SimTime InferenceServer::earliest_completion(gpusim::SimTime cap) {
  GLP_CHECK(!inflight_.empty());
  gpusim::DeviceEngine& dev = ctx_->device();
  // Step the device exactly event-by-event so it is never advanced past
  // the completion we report — overshooting would delay the start of
  // batches issued afterwards and distort the measured schedule.
  for (int step = 0; step < (1 << 22); ++step) {
    const gpusim::SimTime t = dev.peek_next_event();
    if (t > cap || t == kInf) return kInf;
    dev.advance_device_to(t);
    gpusim::SimTime best = kInf;
    for (const InFlight& f : inflight_) {
      if (dev.event_complete(f.done)) best = std::min(best, dev.event_time(f.done));
    }
    if (best < kInf) return best;
  }
  throw glp::InternalError(
      "serving: in-flight batch never completed within the lookahead horizon");
}

std::vector<RequestRecord> InferenceServer::replay(
    std::vector<InferenceRequest> trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const InferenceRequest& a, const InferenceRequest& b) {
                     return a.arrival_ns < b.arrival_ns;
                   });
  prewarm();

  gpusim::DeviceEngine& dev = ctx_->device();
  t0_ = dev.host_now();
  // Shift trace times onto the absolute sim clock.
  for (InferenceRequest& r : trace) {
    r.arrival_ns += t0_;
    if (r.deadline_ns > 0.0) r.deadline_ns += t0_;
  }

  const auto pending = [this]() {
    for (const Shard& sh : shards_) {
      if (!sh.queue->empty()) return true;
    }
    return false;
  };

  std::vector<RequestRecord> records;
  records.reserve(trace.size());
  std::size_t next = 0;
  int stalls = 0;

  while (next < trace.size() || pending() || !inflight_.empty()) {
    const gpusim::SimTime now = dev.host_now();
    dev.advance_device_to(now);
    bool progressed = reap(records);

    while (next < trace.size() && trace[next].arrival_ns <= now) {
      InferenceRequest& r = trace[next++];
      progressed = true;
      const std::uint64_t id = r.id;
      const int tenant = r.tenant;
      const gpusim::SimTime arrival = r.arrival_ns;
      const gpusim::SimTime deadline = r.deadline_ns;
      GLP_REQUIRE(tenant >= 0 && tenant < tenants(),
                  "request " << id << " names unknown tenant " << tenant);
      Shard& shard = shards_[static_cast<std::size_t>(tenant)];
      if (const auto dropped = admit(shard, r, now)) {
        RequestRecord rec;
        rec.id = id;
        rec.tenant = tenant;
        rec.outcome = *dropped;
        rec.arrival_ns = arrival - t0_;
        rec.deadline_ns = deadline > 0.0 ? deadline - t0_ : 0.0;
        records.push_back(std::move(rec));
      }
    }

    for (Shard& shard : shards_) {
      for (InferenceRequest& r : shard.queue->expire(now)) {
        progressed = true;
        RequestRecord rec;
        rec.id = r.id;
        rec.tenant = r.tenant;
        rec.outcome = Outcome::kExpired;
        rec.arrival_ns = r.arrival_ns - t0_;
        rec.deadline_ns = r.deadline_ns > 0.0 ? r.deadline_ns - t0_ : 0.0;
        records.push_back(std::move(rec));
      }
    }

    // Cut batches in one pass, oldest queued request first, so a tenant
    // that shares its slot never starves a longer-waiting peer. A cut
    // occupies the slot until its batch completes, so no shard cuts twice.
    std::vector<std::pair<gpusim::SimTime, int>> order;
    order.reserve(shards_.size());
    for (int t = 0; t < tenants(); ++t) {
      if (const InferenceRequest* head =
              shards_[static_cast<std::size_t>(t)].queue->oldest()) {
        order.emplace_back(head->arrival_ns, t);
      }
    }
    std::sort(order.begin(), order.end());
    for (const auto& [arrival, t] : order) {
      if (slot_busy_[static_cast<std::size_t>(t % opts_.slots)]) continue;
      issue(t, now);
      progressed = true;
    }

    if (progressed) {
      stalls = 0;
      continue;
    }
    if (next >= trace.size() && !pending() && inflight_.empty()) break;

    // Next host wake-up: the earliest of (next arrival, next queue
    // deadline, earliest in-flight completion).
    gpusim::SimTime next_t = kInf;
    if (next < trace.size()) next_t = std::min(next_t, trace[next].arrival_ns);
    for (const Shard& shard : shards_) {
      const gpusim::SimTime dl = shard.queue->next_deadline();
      if (dl > now) next_t = std::min(next_t, dl);
    }

    gpusim::SimTime wake = next_t;
    if (!inflight_.empty()) {
      const gpusim::SimTime comp = earliest_completion(next_t);
      wake = std::min(wake, std::max(comp, now));
    }
    GLP_CHECK(wake < kInf);  // otherwise the queue can never drain
    if (wake > now) {
      dev.host_advance(wake - now);
      stalls = 0;
    } else if (++stalls > 10000) {
      throw glp::InternalError("serving: replay event loop is stalled");
    }
  }
  return records;
}

namespace {

/// Shared accumulation for the overall and per-tenant summaries.
struct StatsCore {
  std::size_t offered = 0, served = 0, rejected = 0, expired = 0, shed = 0;
  std::size_t downgraded = 0, deadline_misses = 0;
  std::size_t with_deadline = 0, on_time = 0;
  double sum_ms = 0.0, max_ms = 0.0;
  std::vector<double> lat;
  gpusim::SimTime first_arrival = kInf, last_completion = 0.0;
  std::set<std::uint64_t> batch_ids;

  void add(const RequestRecord& r) {
    ++offered;
    first_arrival = std::min(first_arrival, r.arrival_ns);
    if (r.deadline_ns > 0.0) ++with_deadline;
    switch (r.outcome) {
      case Outcome::kRejected:
        ++rejected;
        return;
      case Outcome::kExpired:
        ++expired;
        return;
      case Outcome::kShed:
        ++shed;
        return;
      case Outcome::kServed:
        break;
    }
    ++served;
    if (r.downgraded) ++downgraded;
    batch_ids.insert(r.batch_id);
    if (r.deadline_ns > 0.0) {
      if (r.completion_ns > r.deadline_ns) {
        ++deadline_misses;
      } else {
        ++on_time;
      }
    }
    last_completion = std::max(last_completion, r.completion_ns);
    const double ms = r.latency_ms();
    lat.push_back(ms);
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
  }

  double slo_attainment() const {
    if (with_deadline == 0) return 1.0;
    return static_cast<double>(on_time) / static_cast<double>(with_deadline);
  }
  double throughput_rps() const {
    if (served == 0 || last_completion <= first_arrival) return 0.0;
    return static_cast<double>(served) /
           ((last_completion - first_arrival) / 1e9);
  }
};

}  // namespace

ServingStats InferenceServer::summarize(
    const std::vector<RequestRecord>& records) {
  StatsCore all;
  std::map<int, StatsCore> per_tenant;
  for (const RequestRecord& r : records) {
    all.add(r);
    per_tenant[r.tenant].add(r);
  }

  ServingStats s;
  s.offered = all.offered;
  s.served = all.served;
  s.rejected = all.rejected;
  s.expired = all.expired;
  s.shed = all.shed;
  s.downgraded = all.downgraded;
  s.deadline_misses = all.deadline_misses;
  s.slo_attainment = all.slo_attainment();
  if (!all.lat.empty()) {
    std::sort(all.lat.begin(), all.lat.end());
    s.p50_ms = percentile_nearest_rank(all.lat, 0.50);
    s.p95_ms = percentile_nearest_rank(all.lat, 0.95);
    s.p99_ms = percentile_nearest_rank(all.lat, 0.99);
    s.mean_ms = all.sum_ms / static_cast<double>(all.lat.size());
    s.max_ms = all.max_ms;
  }
  // Distinct ids, not max+1: callers routinely summarize filtered record
  // sets (e.g. one tenant's slice of a replay) whose batch ids are
  // sparse, and fleet merges interleave every device's ids.
  if (!all.batch_ids.empty()) {
    s.batches = all.batch_ids.size();
    s.mean_batch =
        static_cast<double>(all.served) / static_cast<double>(s.batches);
  }
  if (all.served > 0 && all.last_completion > all.first_arrival) {
    s.makespan_ms = (all.last_completion - all.first_arrival) / gpusim::kMs;
    s.throughput_rps = all.throughput_rps();
  }

  for (auto& [tenant, core] : per_tenant) {
    TenantStats ts;
    ts.tenant = tenant;
    ts.offered = core.offered;
    ts.served = core.served;
    ts.rejected = core.rejected;
    ts.expired = core.expired;
    ts.shed = core.shed;
    ts.downgraded = core.downgraded;
    ts.deadline_misses = core.deadline_misses;
    ts.slo_attainment = core.slo_attainment();
    if (!core.lat.empty()) {
      std::sort(core.lat.begin(), core.lat.end());
      ts.p50_ms = percentile_nearest_rank(core.lat, 0.50);
      ts.p95_ms = percentile_nearest_rank(core.lat, 0.95);
      ts.p99_ms = percentile_nearest_rank(core.lat, 0.99);
      ts.mean_ms = core.sum_ms / static_cast<double>(core.lat.size());
      ts.max_ms = core.max_ms;
    }
    ts.throughput_rps = core.throughput_rps();
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

}  // namespace serving
