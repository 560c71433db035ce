#include "minicaffe/layers/input_layer.hpp"

namespace mc {

void InputLayer::setup(const std::vector<Blob*>& bottom,
                       const std::vector<Blob*>& top) {
  GLP_REQUIRE(bottom.empty(), "Input layers take no bottoms");
  GLP_REQUIRE(top.size() == 1, "Input layer expects one top");
  const LayerParams& p = spec_.params;
  GLP_REQUIRE(p.batch_size > 0, "Input layer needs batch_size");
  const DatasetSpec& d = p.dataset;
  GLP_REQUIRE(d.channels > 0 && d.height > 0 && d.width > 0,
              "Input layer needs a dataset shape (channels/height/width)");
  top[0]->reshape({p.batch_size, d.channels, d.height, d.width});
  sample_size_ = d.sample_size();
}

void InputLayer::forward(const std::vector<Blob*>& bottom,
                         const std::vector<Blob*>& top) {
  (void)bottom;
  const std::size_t bytes = top[0]->count() * sizeof(float);
  if (!ec_->numeric()) {
    // Timing-only: the same copy, with no bytes behind it to move.
    ec_->ctx->device().memcpy_async(ec_->home_stream, bytes, /*host_to_device=*/true);
    return;
  }
  ec_->ctx->memcpy_async(top[0]->mutable_data(), staging(), bytes,
                         /*h2d=*/true, ec_->home_stream);
}

void InputLayer::backward(const std::vector<Blob*>&, const std::vector<bool>&,
                          const std::vector<Blob*>&) {}

}  // namespace mc
