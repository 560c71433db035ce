#include "serving/fleet_server.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace serving {

FleetServer::FleetServer(scuda::Fleet& fleet, std::vector<TenantModel> models,
                         FleetServerOptions opts)
    : models_(std::move(models)), opts_(std::move(opts)) {
  const int n = fleet.size();
  const int t_count = static_cast<int>(models_.size());
  GLP_REQUIRE(t_count >= 1, "fleet server needs at least one tenant model");
  opts_.replicas = std::max(1, std::min(opts_.replicas, n));

  // Round-robin replica groups, then one InferenceServer per device over
  // the tenants that landed on it.
  groups_.resize(static_cast<std::size_t>(t_count));
  local_id_.assign(static_cast<std::size_t>(n),
                   std::vector<int>(static_cast<std::size_t>(t_count), -1));
  global_id_.resize(static_cast<std::size_t>(n));
  std::vector<std::vector<TenantModel>> placed(static_cast<std::size_t>(n));
  for (int t = 0; t < t_count; ++t) {
    for (int k = 0; k < opts_.replicas; ++k) {
      const int d = (t + k) % n;
      groups_[static_cast<std::size_t>(t)].push_back(d);
      local_id_[static_cast<std::size_t>(d)][static_cast<std::size_t>(t)] =
          static_cast<int>(placed[static_cast<std::size_t>(d)].size());
      global_id_[static_cast<std::size_t>(d)].push_back(t);
      placed[static_cast<std::size_t>(d)].push_back(
          models_[static_cast<std::size_t>(t)]);
    }
  }
  servers_.reserve(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    GLP_REQUIRE(!placed[static_cast<std::size_t>(d)].empty(),
                "device " << d << " hosts no tenants; shrink the fleet or "
                          << "raise the replica count");
    servers_.push_back(std::make_unique<InferenceServer>(
        fleet.device(d), std::move(placed[static_cast<std::size_t>(d)]),
        opts_.server));
  }
  healthy_.assign(static_cast<std::size_t>(n), true);
}

void FleetServer::set_healthy(int device, bool healthy) {
  healthy_.at(static_cast<std::size_t>(device)) = healthy;
}

std::vector<RequestRecord> FleetServer::replay(
    std::vector<InferenceRequest> trace) {
  const int n = devices();
  // Warm every device server up front: routing reads the seeded service
  // estimates, and the replays below will not warm up a second time.
  for (auto& s : servers_) s->prewarm();

  std::stable_sort(trace.begin(), trace.end(),
                   [](const InferenceRequest& a, const InferenceRequest& b) {
                     return a.arrival_ns < b.arrival_ns;
                   });

  // Least-busy routing on virtual finish times: device d is busy until
  // busy_until[d]; a request extends the chosen device by its tenant's
  // per-request estimate.
  std::vector<gpusim::SimTime> busy_until(static_cast<std::size_t>(n), 0.0);
  std::vector<std::vector<InferenceRequest>> slices(
      static_cast<std::size_t>(n));
  routes_.clear();
  routes_.reserve(trace.size());
  for (InferenceRequest& r : trace) {
    GLP_REQUIRE(r.tenant >= 0 && r.tenant < tenants(),
                "request " << r.id << " names unknown tenant " << r.tenant);
    const auto& group = groups_[static_cast<std::size_t>(r.tenant)];
    int best = -1;
    gpusim::SimTime best_finish = 0.0;
    for (const int d : group) {
      if (!healthy_[static_cast<std::size_t>(d)]) continue;
      const int local =
          local_id_[static_cast<std::size_t>(d)][static_cast<std::size_t>(r.tenant)];
      const double est =
          servers_[static_cast<std::size_t>(d)]->service_estimate_ns(local);
      const gpusim::SimTime finish =
          std::max(busy_until[static_cast<std::size_t>(d)], r.arrival_ns) + est;
      if (best < 0 || finish < best_finish) {
        best = d;
        best_finish = finish;
      }
    }
    GLP_REQUIRE(best >= 0, "tenant " << r.tenant
                                     << " has no healthy replica to route to");
    busy_until[static_cast<std::size_t>(best)] = best_finish;
    routes_.emplace_back(r.id, best);
    InferenceRequest local_r = std::move(r);
    local_r.tenant =
        local_id_[static_cast<std::size_t>(best)][static_cast<std::size_t>(local_r.tenant)];
    slices[static_cast<std::size_t>(best)].push_back(std::move(local_r));
  }

  // Independent per-device replays, tenants mapped back to global ids.
  // Every device server numbers its batches from 0; interleaving the ids
  // by device keeps them distinct across the fleet.
  std::vector<RequestRecord> merged;
  merged.reserve(trace.size());
  for (int d = 0; d < n; ++d) {
    if (slices[static_cast<std::size_t>(d)].empty()) continue;
    std::vector<RequestRecord> recs =
        servers_[static_cast<std::size_t>(d)]->replay(
            std::move(slices[static_cast<std::size_t>(d)]));
    for (RequestRecord& rec : recs) {
      rec.tenant = global_id_[static_cast<std::size_t>(d)]
                             [static_cast<std::size_t>(rec.tenant)];
      rec.batch_id = rec.batch_id * static_cast<std::uint64_t>(n) +
                     static_cast<std::uint64_t>(d);
      merged.push_back(std::move(rec));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              if (a.completion_ns != b.completion_ns) {
                return a.completion_ns < b.completion_ns;
              }
              return a.id < b.id;
            });
  return merged;
}

}  // namespace serving
