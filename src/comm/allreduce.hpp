#pragma once
// Gradient bucketing and shared fleet co-simulation helpers for the
// collective engine (comm/collectives.hpp). The host oracle for every
// collective algorithm is reference_collective_allreduce, which replays
// the selected wave program.

#include <cstddef>
#include <memory>
#include <vector>

#include "gpusim/interconnect.hpp"
#include "minicaffe/net.hpp"
#include "simcuda/fleet.hpp"

namespace comm {

/// One gradient bucket: a contiguous run of learnable parameters that
/// finish their backward accumulation together.
struct Bucket {
  std::vector<std::size_t> params;  ///< indices into net.learnable_params()
  std::size_t count = 0;            ///< total floats in the bucket
  /// Layer index (spec order) whose backward completes the bucket: the
  /// minimum owning-layer index over the bucket's params. The backward
  /// per-layer hook fires bucket-ready events when it reaches this layer.
  std::size_t close_layer = 0;
};

/// Buckets in backward completion order (bucket 0 closes first).
struct BucketPlan {
  std::vector<Bucket> buckets;
  std::size_t total_count = 0;  ///< floats across all buckets
};

/// Partition a net's learnable parameters into buckets of at least
/// `bucket_bytes`, ordered by backward completion. Parameters owned by
/// the same layer are never split across buckets (shared parameters are
/// owned by their *minimum* layer index — the last to accumulate in
/// backward order).
BucketPlan plan_buckets(const mc::Net& net, std::size_t bucket_bytes);

/// Drive `dev` forward until `ev` has completed and return its
/// timestamp. Unlike synchronize_event this never joins the host clock
/// to the device — it is the fleet co-simulator peeking, not the
/// dispatch thread blocking.
gpusim::SimTime advance_until_event(gpusim::DeviceEngine& dev,
                                    gpusim::EventId ev);

}  // namespace comm
