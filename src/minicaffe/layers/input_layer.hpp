#pragma once
// Input layer for serving: a shaped entry point whose data is supplied by
// the caller (an InferenceSession) instead of a dataset. The caller fills
// the host staging buffer before each forward; forward() uploads it with
// one simulated H2D copy on the context's home stream, so request
// latencies include the input transfer. In timing-only mode the layer
// holds no staging and issues the same copy with nothing behind it.
//
// Top: (data [N,C,H,W]) with N = params.batch_size and C/H/W from
// params.dataset.

#include "minicaffe/layer.hpp"

namespace mc {

class InputLayer final : public Layer {
 public:
  using Layer::Layer;
  void setup(const std::vector<Blob*>& bottom,
             const std::vector<Blob*>& top) override;
  void forward(const std::vector<Blob*>& bottom,
               const std::vector<Blob*>& top) override;
  void backward(const std::vector<Blob*>& top,
                const std::vector<bool>& propagate_down,
                const std::vector<Blob*>& bottom) override;
  bool has_backward() const override { return false; }

  /// Host staging buffer the caller fills before a numeric forward()
  /// (size batch_size * sample_size), allocated on first use: timing-only
  /// forwards never ask for it.
  float* staging() {
    staging_.resize(static_cast<std::size_t>(batch()) * sample_size_);
    return staging_.data();
  }
  std::size_t staging_count() const { return staging_.size(); }
  /// Elements per sample (C*H*W).
  std::size_t sample_size() const { return sample_size_; }
  int batch() const { return spec_.params.batch_size; }

 private:
  std::vector<float> staging_;
  std::size_t sample_size_ = 0;
};

}  // namespace mc
