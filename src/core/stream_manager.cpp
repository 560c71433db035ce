#include "core/stream_manager.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glp4nn {

std::vector<gpusim::StreamId> StreamManager::acquire_slice(scuda::Context& ctx,
                                                           int slice,
                                                           int slice_width,
                                                           int use_width) {
  GLP_REQUIRE(slice >= 0, "slice index must be non-negative");
  GLP_REQUIRE(slice_width >= 1, "slice width must be positive");
  GLP_REQUIRE(use_width >= 1 && use_width <= slice_width,
              "used width " << use_width << " outside [1, slice width "
                            << slice_width << "]");
  GLP_REQUIRE(slice_width <= ctx.props().max_concurrent_kernels,
              "slice width " << slice_width
                             << " exceeds the device concurrency degree "
                             << ctx.props().max_concurrent_kernels);
  std::vector<scuda::Stream>& pool = pools_[&ctx];
  const int base = slice * slice_width;
  const int total = base + use_width;
  while (static_cast<int>(pool.size()) < total) {
    pool.push_back(scuda::Stream::create(ctx));
  }
  std::vector<gpusim::StreamId> ids;
  ids.reserve(static_cast<std::size_t>(use_width));
  for (int i = base; i < total; ++i) {
    ids.push_back(pool[static_cast<std::size_t>(i)].id());
  }
  return ids;
}

int StreamManager::pool_size(const scuda::Context& ctx) const {
  auto it = pools_.find(const_cast<scuda::Context*>(&ctx));
  return it == pools_.end() ? 0 : static_cast<int>(it->second.size());
}

int StreamManager::max_pool_size() const {
  int best = 0;
  for (const auto& [ctx, pool] : pools_) {
    best = std::max(best, static_cast<int>(pool.size()));
  }
  return best;
}

}  // namespace glp4nn
