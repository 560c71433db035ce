#include "comm/allreduce.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/check.hpp"

namespace comm {

BucketPlan plan_buckets(const mc::Net& net, std::size_t bucket_bytes) {
  const auto& params = net.learnable_params();
  // Owning layer of each learnable param: the minimum layer index whose
  // param_blobs() contain it. Backward runs layers in reverse, so the
  // minimum owner is the last layer to accumulate into a shared param.
  std::map<const mc::Blob*, std::size_t> owner;
  const auto& layers = net.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    for (const auto& p : layers[li]->param_blobs()) {
      auto it = owner.find(p.get());
      if (it == owner.end()) {
        owner.emplace(p.get(), li);
      } else {
        it->second = std::min(it->second, li);
      }
    }
  }

  // Param indices sorted by descending owner = backward completion order.
  std::vector<std::size_t> order(params.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t oa = owner.at(params[a].get());
    const std::size_t ob = owner.at(params[b].get());
    if (oa != ob) return oa > ob;
    return a < b;
  });

  // Greedy packing: whole owner-groups per bucket, closing a bucket once
  // it reaches `bucket_bytes` (a group larger than the budget stays one
  // bucket — params of one layer are never split).
  BucketPlan plan;
  Bucket cur;
  std::size_t cur_owner = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const std::size_t o = owner.at(params[i].get());
    const bool group_boundary = cur.params.empty() || o != cur_owner;
    if (group_boundary && !cur.params.empty() &&
        cur.count * sizeof(float) >= bucket_bytes) {
      plan.buckets.push_back(std::move(cur));
      cur = Bucket{};
    }
    if (cur.params.empty()) cur.close_layer = o;
    cur_owner = o;
    cur.close_layer = std::min(cur.close_layer, o);
    cur.params.push_back(i);
    cur.count += params[i]->count();
  }
  if (!cur.params.empty()) plan.buckets.push_back(std::move(cur));
  for (const auto& b : plan.buckets) plan.total_count += b.count;
  return plan;
}

gpusim::SimTime advance_until_event(gpusim::DeviceEngine& dev,
                                    gpusim::EventId ev) {
  int spins = 0;
  while (!dev.event_complete(ev)) {
    const gpusim::SimTime next = dev.peek_next_event();
    GLP_CHECK_MSG(next < std::numeric_limits<gpusim::SimTime>::infinity(),
                  "awaited event can never complete (device idle)");
    dev.advance_device_to(next);
    GLP_CHECK_MSG(++spins < 1000000, "event co-sim loop is spinning");
  }
  return dev.event_time(ev);
}

}  // namespace comm
