#pragma once
// InferenceServer: the multi-tenant serving front end. Owns one
// InferenceSession per tenant model, one *shard* per tenant — a bounded
// RequestQueue, a token-bucket QoS meter and a service time estimate, so
// tenants never contend on a shared queue — and `slots` concurrent
// in-flight batch slots, each a dedicated home stream. Each batch binds
// its slot like a DAG op (kern::DagOpBinding: home stream, slot of
// `slots`), so under the GLP4NN scheduler its per-sample scopes run on a
// disjoint slice of the stream pool and fork/join against the slot's
// home stream, and batches from different tenants overlap on the device;
// the serial baseline ignores the binding and funnels everything through
// the default stream.
//
// Admission pipeline (per request, at enqueue time):
//   1. token bucket — a tenant whose bucket is dry is over its contracted
//      rate; under queue pressure (its shard queue at least 3/4 full) its
//      requests are shed first (Outcome::kShed);
//   2. SLO feasibility — with admission.slo_aware, a deadline-carrying
//      request whose predicted completion (backlog x the tenant's EWMA
//      service estimate, padded by `headroom`) exceeds its deadline is
//      shed at admission instead of served late — or, with
//      admission.downgrade, admitted best-effort with the deadline
//      stripped from expiry (still counted against SLO attainment);
//   3. bounded queue — a full shard queue bounces the request
//      (Outcome::kRejected).
//
// Batching is continuous (see BatchPolicy): the moment a tenant's slot
// is free, the server cuts min(queued, max_batch) of its requests in
// arrival order. Shards with a free slot cut oldest queued request
// first, so a tenant sharing its slot never starves a longer-waiting
// peer, and batch ids come from one server-wide counter.
//
// replay() is a deterministic single-threaded discrete-event loop over
// simulated time: it admits trace arrivals, expires deadlines, cuts
// batches, and uses DeviceEngine::advance_device_to lookahead to find
// batch completions without disturbing the host clock. Identical inputs
// give identical schedules, identical shed/downgrade decisions and
// bit-identical outputs.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/token_bucket.hpp"
#include "core/glp4nn.hpp"
#include "serving/request_queue.hpp"
#include "serving/session.hpp"
#include "serving/trace_gen.hpp"

namespace serving {

enum class BatchMode {
  kContinuous,  ///< cut as soon as the slot frees; no delay window
};

/// Continuous batching, the server's one batching policy. There is no
/// delay window: the in-flight time of a tenant's previous batch is the
/// accumulation window, so under light load requests never idle in the
/// queue and under heavy load batches grow as large as the backlog
/// allows, up to `max_batch`. `max_batch = 1` serves every request as
/// its own batch.
struct BatchPolicy {
  BatchMode mode = BatchMode::kContinuous;  ///< the only mode; selects nothing
  int max_batch = 8;
};

/// Per-tenant rate contract for the admission token bucket.
struct TenantQos {
  double rate_rps = 0.0;  ///< sustained budget; 0 = no contract (never dry)
  double burst = 0.0;     ///< bucket depth in requests; 0 → 2*max_batch
};

struct TenantModel {
  std::string name;
  mc::NetSpec spec;
  std::string weights;   ///< optional checkpoint path
  TenantQos qos;         ///< admission rate contract (optional)
};

/// Deadline-aware admission policy (see the class comment).
struct AdmissionOptions {
  bool slo_aware = false;  ///< shed/downgrade provably-late requests
  bool downgrade = false;  ///< downgrade (serve best-effort) instead of shed
  double headroom = 1.2;   ///< safety factor on the service estimate
};

struct ServerOptions {
  BatchPolicy batch;
  AdmissionOptions admission;
  int slots = 4;                    ///< concurrent in-flight batch slots
  std::size_t queue_capacity = 64;  ///< admission bound *per tenant shard*
  /// true: GLP4NN RuntimeScheduler, each batch bound to its slot's slice;
  /// false: serial baseline (every kernel on the default stream).
  bool use_scheduler = true;
  glp4nn::SchedulerOptions scheduler;  ///< GLP4NN options, passed through as given
  kern::ComputeMode mode = kern::ComputeMode::kNumeric;
  /// Merge each lane's per-sample kernel chain into one launch per
  /// stream in steady scopes — the serving hot path's answer to
  /// per-launch host overhead. The server's one kern::Stager goes to
  /// every session and batch binding, and the GLP4NN scheduler arms it
  /// in steady scopes. Inert under the serial baseline (it ignores
  /// bindings), so scheduler-vs-serial comparisons stay honest.
  bool coalesce_lanes = true;
  bool record_timeline = false;  ///< keep kernel/copy records (race checks)
  bool keep_outputs = false;     ///< copy each request's output into its record
};

/// Outcome/latency breakdown for one tenant's slice of a replay.
struct TenantStats {
  int tenant = -1;
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t rejected = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;
  std::size_t downgraded = 0;       ///< served best-effort past their SLO check
  std::size_t deadline_misses = 0;  ///< served, but past their deadline
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_ms = 0.0, max_ms = 0.0;
  /// Fraction of deadline-carrying offered requests served by their
  /// deadline (1.0 when no request carried a deadline).
  double slo_attainment = 1.0;
  double throughput_rps = 0.0;
};

struct ServingStats {
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t rejected = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;             ///< dropped by SLO-aware admission
  std::size_t downgraded = 0;       ///< served best-effort past their SLO check
  std::size_t deadline_misses = 0;  ///< served, but past their deadline
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_ms = 0.0, max_ms = 0.0;
  double slo_attainment = 1.0;    ///< see TenantStats::slo_attainment
  double makespan_ms = 0.0;       ///< first arrival → last completion
  double throughput_rps = 0.0;    ///< served / makespan
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  std::vector<TenantStats> tenants;  ///< one entry per tenant seen
};

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// element whose rank covers quantile `q` — an actual sample value, never
/// an interpolation (which is biased for the small per-tenant record sets
/// the per-tenant breakdown summarizes).
double percentile_nearest_rank(const std::vector<double>& sorted, double q);

class InferenceServer {
 public:
  InferenceServer(scuda::Context& ctx, std::vector<TenantModel> models,
                  ServerOptions opts = {});

  /// Replay an open-loop trace (arrival_ns relative to replay start).
  /// Returns one record per request, in completion/drop order.
  std::vector<RequestRecord> replay(std::vector<InferenceRequest> trace);

  InferenceSession& session(int tenant) { return *sessions_.at(tenant); }
  int tenants() const { return static_cast<int>(sessions_.size()); }
  const ServerOptions& options() const { return opts_; }
  /// Activation arenas built across all tenants (replica high-water mark).
  std::size_t total_replicas() const;
  /// Per-request service estimate the admission feasibility check uses
  /// for `tenant` (simulated ns; 0 until warmed up or first reap).
  double service_estimate_ns(int tenant) const;
  /// Fault degradations to serial dispatch: slots whose home-stream
  /// creation failed (they run on the default stream) plus scopes the
  /// GLP4NN scheduler serialised after an injected fault. 0 under the
  /// serial baseline, which creates no streams.
  std::size_t serial_fallback_count() const;

  /// Run one forward per (tenant, replica batch size) so every scope is
  /// profiled before traffic, and seed each tenant's service estimate;
  /// warmup time is excluded from request metrics. replay() calls it.
  /// Idempotent, so a fleet front end can warm every shard server up
  /// front, read the seeded estimates to route a trace, and then replay
  /// the routed slices.
  void prewarm();

  static ServingStats summarize(const std::vector<RequestRecord>& records);

 private:
  /// One tenant's slice of the ingest path.
  struct Shard {
    std::unique_ptr<RequestQueue> queue;
    glp::TokenBucket bucket;
    double est_ns = 0.0;           ///< EWMA per-request service estimate
    std::size_t inflight_reqs = 0;
  };

  struct InFlight {
    int slot = 0;
    int tenant = 0;
    std::uint64_t batch_id = 0;
    std::vector<InferenceRequest> requests;
    InferenceSession::Replica* replica = nullptr;
    gpusim::EventId done = 0;
    gpusim::SimTime issue_ns = 0.0;
  };

  void build_shards();
  /// Admission pipeline; returns the terminal outcome for dropped
  /// requests, or nullopt when the request was enqueued.
  std::optional<Outcome> admit(Shard& shard, InferenceRequest& r,
                               gpusim::SimTime now);
  /// Cut `tenant`'s next batch — its oldest max_batch queued requests —
  /// and launch it on the tenant's slot, which must be free.
  void issue(int tenant, gpusim::SimTime now);
  bool reap(std::vector<RequestRecord>& records);
  gpusim::SimTime earliest_completion(gpusim::SimTime cap);

  scuda::Context* ctx_;
  ServerOptions opts_;
  std::vector<TenantModel> models_;
  std::unique_ptr<glp4nn::Glp4nnEngine> engine_;       // scheduler mode
  std::unique_ptr<kern::SerialDispatcher> serial_;     // baseline mode
  kern::KernelDispatcher* dispatcher_ = nullptr;
  /// Lane-coalescing stager of every session and batch binding (null
  /// unless ServerOptions::coalesce_lanes).
  std::unique_ptr<kern::Stager> stager_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  std::vector<Shard> shards_;         ///< one per tenant
  std::vector<scuda::Stream> homes_;  ///< one home stream per slot
  std::size_t home_fallbacks_ = 0;    ///< slots left on the default stream
  std::vector<bool> slot_busy_;
  std::vector<InFlight> inflight_;
  std::uint64_t next_batch_id_ = 0;  ///< one id sequence across all shards
  bool warmed_ = false;      ///< prewarm already ran
  gpusim::SimTime t0_ = 0.0;  ///< replay epoch (absolute sim time)
};

}  // namespace serving
