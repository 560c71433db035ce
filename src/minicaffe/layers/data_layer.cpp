#include "minicaffe/layers/data_layer.hpp"

namespace mc {

void DataLayer::setup(const std::vector<Blob*>& bottom,
                      const std::vector<Blob*>& top) {
  GLP_REQUIRE(bottom.empty(), "Data layers take no bottoms");
  const LayerParams& p = spec_.params;
  GLP_REQUIRE(p.batch_size > 0, "Data layer needs batch_size");
  const std::size_t expected_tops = p.pair_data ? 3 : 2;
  GLP_REQUIRE(top.size() == expected_tops,
              "Data layer expects " << expected_tops << " tops");

  const DatasetSpec& d = p.dataset;
  GLP_REQUIRE(d.num_classes > 0 && d.train_size > 0,
              "dataset must have classes and samples");
  top[0]->reshape({p.batch_size, d.channels, d.height, d.width});
  if (p.pair_data) {
    top[1]->reshape({p.batch_size, d.channels, d.height, d.width});
    top[2]->reshape({p.batch_size});
  } else {
    top[1]->reshape({p.batch_size});
  }
}

void DataLayer::forward(const std::vector<Blob*>& bottom,
                        const std::vector<Blob*>& top) {
  (void)bottom;
  const LayerParams& p = spec_.params;
  const int batch = p.batch_size;
  const std::uint64_t first = cursor_;
  cursor_ += shard_stride_ != 0 ? shard_stride_
                                : static_cast<std::uint64_t>(batch);

  // Upload through the simulated copy engine on the context's home
  // stream (the default stream outside serving).
  scuda::Context& ctx = *ec_->ctx;
  const std::size_t image_bytes = top[0]->count() * sizeof(float);
  const std::size_t label_bytes = static_cast<std::size_t>(batch) * sizeof(float);
  if (!ec_->numeric()) {
    // Timing-only: the same copies, with no bytes behind them to move.
    gpusim::DeviceEngine& dev = ctx.device();
    dev.memcpy_async(ec_->home_stream, image_bytes, /*host_to_device=*/true);
    if (p.pair_data) dev.memcpy_async(ec_->home_stream, image_bytes, true);
    dev.memcpy_async(ec_->home_stream, label_bytes, true);
    return;
  }

  if (!dataset_) {
    dataset_ = std::make_unique<SyntheticDataset>(p.dataset, /*seed=*/0xDA7A5E7ULL);
  }
  staging_images_.resize(top[0]->count());
  if (p.pair_data) staging_images_p_.resize(top[0]->count());
  staging_labels_.resize(static_cast<std::size_t>(batch));
  if (!p.pair_data) {
    dataset_->fill_batch(first, batch, staging_images_.data(),
                         staging_labels_.data());
  } else {
    // Pairs: first element sequential; second element same class
    // (similar, ~50%) or any index (checked for dissimilarity).
    const std::uint64_t size = static_cast<std::uint64_t>(p.dataset.train_size);
    for (int n = 0; n < batch; ++n) {
      const std::uint64_t a = (first + static_cast<std::uint64_t>(n)) % size;
      dataset_->fill_sample(
          a, staging_images_.data() + static_cast<std::size_t>(n) *
                                          p.dataset.sample_size());
      const bool want_similar = ec_->rng.next_double() < 0.5;
      std::uint64_t b = ec_->rng.next_below(size);
      for (int tries = 0; tries < 64; ++tries) {
        const bool similar = dataset_->label_of(b) == dataset_->label_of(a);
        if (similar == want_similar) break;
        b = ec_->rng.next_below(size);
      }
      dataset_->fill_sample(
          b, staging_images_p_.data() + static_cast<std::size_t>(n) *
                                            p.dataset.sample_size());
      staging_labels_[static_cast<std::size_t>(n)] =
          dataset_->label_of(b) == dataset_->label_of(a) ? 1.0f : 0.0f;
    }
  }

  ctx.memcpy_async(top[0]->mutable_data(), staging_images_.data(), image_bytes,
                   /*h2d=*/true, ec_->home_stream);
  if (p.pair_data) {
    ctx.memcpy_async(top[1]->mutable_data(), staging_images_p_.data(),
                     image_bytes, true, ec_->home_stream);
    ctx.memcpy_async(top[2]->mutable_data(), staging_labels_.data(),
                     label_bytes, true, ec_->home_stream);
  } else {
    ctx.memcpy_async(top[1]->mutable_data(), staging_labels_.data(),
                     label_bytes, true, ec_->home_stream);
  }
}

void DataLayer::backward(const std::vector<Blob*>&, const std::vector<bool>&,
                         const std::vector<Blob*>&) {}

void DataLayer::configure_shard(std::uint64_t offset, std::uint64_t stride) {
  const LayerParams& p = spec_.params;
  GLP_REQUIRE(!p.pair_data,
              "sharding is unavailable in pair mode: pair sampling draws "
              "from the shared RNG and diverges across replicas");
  GLP_REQUIRE(stride >= static_cast<std::uint64_t>(p.batch_size),
              "shard stride must cover at least one batch");
  cursor_ = offset;
  shard_stride_ = stride;
}

}  // namespace mc
