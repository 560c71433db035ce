#pragma once
// Execution timeline recorder. Feeds the Fig. 3 timeline bench and the
// simcupti activity API. Disabled by default to keep steady-state
// training allocation-free on the hot path.

#include <vector>

#include "gpusim/types.hpp"

namespace gpusim {

class Timeline {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void add_kernel(const KernelRecord& rec) {
    if (enabled_) kernels_.push_back(rec);
  }
  void add_copy(const CopyRecord& rec) {
    if (enabled_) copies_.push_back(rec);
  }

  /// Records in the order they were added.
  const std::vector<KernelRecord>& kernels() const { return kernels_; }
  const std::vector<CopyRecord>& copies() const { return copies_; }

  std::size_t size() const { return kernels_.size() + copies_.size(); }
  bool empty() const { return kernels_.empty() && copies_.empty(); }

  void clear() {
    kernels_.clear();
    copies_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<KernelRecord> kernels_;
  std::vector<CopyRecord> copies_;
};

}  // namespace gpusim
