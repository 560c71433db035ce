#pragma once
// Sharded serving across a simulated fleet: each tenant model is placed
// on a *replica group* of devices, every device runs its own
// InferenceServer over the tenants placed on it, and a deterministic
// front-end router splits an offered trace across the replicas.
//
// Placement is round-robin: tenant t's replica group is devices
// (t + k) % N for k < replicas, so groups interleave and heterogeneous
// fleets spread load. Routing walks the trace in arrival order and
// sends each request to the *least busy* healthy replica — busyness
// is a per-device virtual finish time advanced by the tenant's warmed
// per-request service estimate — with ties broken by the lowest device
// index. The decision depends only on the trace, the placement, the
// health flags and the prewarmed estimates, so identical inputs give
// identical routes (and bit-identical merged outputs).
//
// Devices replay their routed slices independently (device clocks are
// independent; serving needs no cross-device transfers) and the merged
// records are summarized with the ordinary ServingStats machinery.

#include <memory>
#include <vector>

#include "serving/server.hpp"
#include "simcuda/fleet.hpp"

namespace serving {

struct FleetServerOptions {
  ServerOptions server;  ///< applied to every per-device server
  int replicas = 1;      ///< replica-group size per tenant (clamped to fleet)
};

class FleetServer {
 public:
  FleetServer(scuda::Fleet& fleet, std::vector<TenantModel> models,
              FleetServerOptions opts = {});

  int devices() const { return static_cast<int>(servers_.size()); }
  int tenants() const { return static_cast<int>(models_.size()); }
  InferenceServer& server(int device) {
    return *servers_.at(static_cast<std::size_t>(device));
  }

  /// Devices hosting tenant t, in routing-preference order.
  const std::vector<int>& replica_group(int tenant) const {
    return groups_.at(static_cast<std::size_t>(tenant));
  }

  /// Health flag; unhealthy devices receive no new traffic. Every tenant
  /// must keep at least one healthy replica or replay() throws.
  void set_healthy(int device, bool healthy);
  bool healthy(int device) const {
    return healthy_.at(static_cast<std::size_t>(device));
  }

  /// Route `trace` across the fleet and replay every device's slice.
  /// Returns the merged records (tenant ids are global; device d's batch
  /// b becomes fleet batch b * devices() + d), ordered by completion time
  /// then id.
  std::vector<RequestRecord> replay(std::vector<InferenceRequest> trace);

  /// Routing table of the last replay: device index per served request
  /// id (useful to assert placement/health behaviour in tests).
  const std::vector<std::pair<std::uint64_t, int>>& last_routes() const {
    return routes_;
  }

 private:
  std::vector<TenantModel> models_;
  FleetServerOptions opts_;
  std::vector<std::unique_ptr<InferenceServer>> servers_;
  std::vector<std::vector<int>> groups_;       ///< tenant -> devices
  std::vector<std::vector<int>> local_id_;     ///< [device][tenant] -> local, -1
  std::vector<std::vector<int>> global_id_;    ///< [device][local] -> tenant
  std::vector<bool> healthy_;
  std::vector<std::pair<std::uint64_t, int>> routes_;
};

}  // namespace serving
