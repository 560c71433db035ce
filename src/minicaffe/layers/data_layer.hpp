#pragma once
// Synthetic data layer. Generates a deterministic batch on the host and
// uploads it with simulated H2D copies (so iteration timelines include
// the input transfer, as a real Caffe data layer's prefetch would). In
// timing-only mode it issues the same copies (bytes, stream, simulated
// span) with nothing behind them: no dataset is built, no batch is
// generated, no staging is held and no byte moves. The dataset is built
// on the first numeric forward; it draws only from its own fixed seed,
// never from the ExecContext RNG, so when it is built moves no sample.
//
// Regular mode tops: (data [N,C,H,W], label [N]).
// Pair mode (Siamese): (data, data_p, similarity [N]) where ~50% of the
// pairs share a class (similarity 1).

#include "minicaffe/layer.hpp"

namespace mc {

class DataLayer final : public Layer {
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

  std::uint64_t cursor() const { return cursor_; }
  /// Host staging bytes held (zero until the first numeric forward).
  std::size_t staging_bytes() const {
    return (staging_images_.capacity() + staging_images_p_.capacity() +
            staging_labels_.capacity()) *
           sizeof(float);
  }
  /// The synthetic dataset, or null until the first numeric forward.
  const SyntheticDataset* dataset() const { return dataset_.get(); }

  /// Data-parallel sharding: this replica reads batches starting at
  /// sample `offset`, advancing the cursor by `stride` (= fleet size ×
  /// batch) per iteration instead of by its own batch size. Device d of
  /// an N-device fleet uses offset = d·batch, stride = N·batch, so the
  /// fleet's iteration k consumes exactly the samples a single device
  /// with the same batch would consume in micro-batches kN..kN+N-1 —
  /// the sample partition the bit-exactness contract fixes. Rejected in
  /// pair mode (pair sampling draws from the shared ExecContext RNG,
  /// which diverges across replicas).
  void configure_shard(std::uint64_t offset, std::uint64_t stride);

 private:
  std::unique_ptr<SyntheticDataset> dataset_;
  std::uint64_t cursor_ = 0;
  std::uint64_t shard_stride_ = 0;  ///< 0: unsharded (advance by batch)
  // Host staging buffers, sized on the first numeric forward and uploaded
  // asynchronously each numeric forward.
  std::vector<float> staging_images_;
  std::vector<float> staging_images_p_;
  std::vector<float> staging_labels_;
};

}  // namespace mc
