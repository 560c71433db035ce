#pragma once
// Stream manager (paper §3.1): owns the *concurrent stream pool* per
// device plus access to the default stream used for synchronisation.
// Pools grow on demand and streams are reused across scopes, so GLP4NN
// never consumes extra host threads or processes — the property the
// paper contrasts against OpenMP-based schemes.

#include <map>
#include <vector>

#include "simcuda/context.hpp"

namespace glp4nn {

class StreamManager {
 public:
  StreamManager() = default;
  StreamManager(const StreamManager&) = delete;
  StreamManager& operator=(const StreamManager&) = delete;

  /// Return the first `use_width` streams of the `slice`-th disjoint
  /// window of `slice_width` streams — streams [slice*slice_width,
  /// slice*slice_width + use_width) — growing the pool on demand.
  /// The scheduler maps each bound slot (a DAG op's chain slot or a
  /// serving batch slot) to its own slice with a *uniform* slice_width,
  /// so slices from concurrent slots can never overlap even when callers
  /// use different use_widths; slice 0 of the full width is the shared
  /// pool unbound scopes draw from.
  std::vector<gpusim::StreamId> acquire_slice(scuda::Context& ctx, int slice,
                                              int slice_width, int use_width);

  /// Current pool size for a device (0 before first acquire).
  int pool_size(const scuda::Context& ctx) const;

  /// High-water pool size across all devices.
  int max_pool_size() const;

 private:
  std::map<scuda::Context*, std::vector<scuda::Stream>> pools_;
};

}  // namespace glp4nn
