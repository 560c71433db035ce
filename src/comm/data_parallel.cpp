#include "comm/data_parallel.hpp"

#include <cstring>

#include "common/check.hpp"
#include "minicaffe/layers/data_layer.hpp"

namespace comm {

FleetTrainer::FleetTrainer(scuda::Fleet& fleet,
                           std::vector<mc::ExecContext*> contexts,
                           const mc::NetSpec& spec,
                           FleetTrainerOptions options)
    : fleet_(&fleet),
      ec_(std::move(contexts)),
      options_(options),
      collectives_(fleet, options.collective) {
  const int n = fleet.size();
  GLP_REQUIRE(static_cast<int>(ec_.size()) == n,
              "need one ExecContext per fleet device");
  for (int d = 0; d < n; ++d) {
    mc::ExecContext* ec = ec_[static_cast<std::size_t>(d)];
    GLP_REQUIRE(ec != nullptr && ec->ctx == &fleet.device(d),
                "ExecContext " << d << " is not wired to fleet device " << d);
    GLP_REQUIRE(!ec->dag_schedule,
                "fleet training requires the plain (non-DAG) backward path");
    GLP_REQUIRE(!ec->inference, "fleet training needs gradient buffers");
  }

  nets_.reserve(static_cast<std::size_t>(n));
  solvers_.reserve(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    nets_.push_back(
        std::make_unique<mc::Net>(spec, *ec_[static_cast<std::size_t>(d)]));
    mc::Net& net = *nets_.back();
    // Shard the input pipeline: device d reads micro-batch d of every
    // fleet iteration (offset d·batch, stride N·batch).
    mc::DataLayer* data = nullptr;
    for (const auto& layer : net.layers()) {
      if ((data = dynamic_cast<mc::DataLayer*>(layer.get())) != nullptr) break;
    }
    GLP_REQUIRE(data != nullptr, "fleet training needs a Data layer");
    const auto batch =
        static_cast<std::uint64_t>(data->spec().params.batch_size);
    data->configure_shard(static_cast<std::uint64_t>(d) * batch,
                          static_cast<std::uint64_t>(n) * batch);
    net.set_backward_layer_hook(
        [this, d](std::size_t li) { on_backward_layer(d, li); });
    solvers_.push_back(std::make_unique<mc::SgdSolver>(net, options_.solver));
  }

  plan_ = plan_buckets(*nets_.front(), options_.bucket_bytes);
  next_bucket_.assign(static_cast<std::size_t>(n), 0);
}

std::size_t FleetTrainer::staging_bytes() const {
  std::size_t floats = 0;
  for (const auto& bucket : flat_) {
    for (const std::vector<float>& flat : bucket) floats += flat.capacity();
  }
  return floats * sizeof(float);
}

void FleetTrainer::record_bucket_ready(int device, std::size_t bucket) {
  ready_events_[bucket * static_cast<std::size_t>(fleet_->size()) +
                static_cast<std::size_t>(device)] =
      fleet_->device(device).device().record_event(gpusim::kDefaultStream);
}

void FleetTrainer::on_backward_layer(int device, std::size_t layer) {
  if (!options_.overlap) return;
  std::size_t& next = next_bucket_[static_cast<std::size_t>(device)];
  while (next < plan_.buckets.size() &&
         plan_.buckets[next].close_layer == layer) {
    record_bucket_ready(device, next);
    ++next;
  }
}

void FleetTrainer::train_one_iteration() {
  const int n = fleet_->size();
  const std::size_t nb = plan_.buckets.size();
  const bool numeric = ec_.front()->numeric();
  const float lr = solvers_.front()->current_lr();
  const float inv_n = 1.0f / static_cast<float>(n);

  // Every device synchronized at the previous iteration's end, so the
  // staging buffers and unpack jobs borrowed by functors are reclaimable.
  collectives_.reset();
  jobs_.clear();
  ready_events_.assign(nb * static_cast<std::size_t>(n), 0);
  std::fill(next_bucket_.begin(), next_bucket_.end(), 0);

  if (numeric && flat_.size() != nb) {
    flat_.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      flat_[b].assign(static_cast<std::size_t>(n),
                      std::vector<float>(plan_.buckets[b].count));
    }
  }

  for (int d = 0; d < n; ++d) nets_[static_cast<std::size_t>(d)]->zero_param_diffs();
  for (int d = 0; d < n; ++d) nets_[static_cast<std::size_t>(d)]->forward();
  for (int d = 0; d < n; ++d) nets_[static_cast<std::size_t>(d)]->backward();
  if (options_.overlap) {
    for (int d = 0; d < n; ++d) {
      GLP_CHECK(next_bucket_[static_cast<std::size_t>(d)] == nb);
    }
  } else {
    // Serialize-then-reduce baseline: buckets only become ready once the
    // whole backward pass has been issued, so every ready event lands
    // after the final backward kernel.
    for (std::size_t b = 0; b < nb; ++b) {
      for (int d = 0; d < n; ++d) record_bucket_ready(d, b);
    }
  }

  std::vector<float*> flat_ptrs(static_cast<std::size_t>(n));
  std::vector<gpusim::SimTime> ready_ns(static_cast<std::size_t>(n));
  for (std::size_t b = 0; b < nb; ++b) {
    const Bucket& bucket = plan_.buckets[b];
    for (int d = 0; d < n; ++d) {
      mc::Net& net = *nets_[static_cast<std::size_t>(d)];
      gpusim::DeviceEngine& dev = fleet_->device(d).device();
      // Drive the device past the bucket-ready event so every backward
      // functor feeding these diffs has run, then pack.
      ready_ns[static_cast<std::size_t>(d)] = advance_until_event(
          dev, ready_events_[b * static_cast<std::size_t>(n) +
                             static_cast<std::size_t>(d)]);
      if (!numeric) continue;
      std::vector<float>& flat = flat_[b][static_cast<std::size_t>(d)];
      std::size_t off = 0;
      for (const std::size_t pi : bucket.params) {
        const mc::Blob& p = *net.learnable_params()[pi];
        std::memcpy(flat.data() + off, p.diff(), p.count() * sizeof(float));
        off += p.count();
      }
      GLP_CHECK(off == bucket.count);
      flat_ptrs[static_cast<std::size_t>(d)] = flat.data();
    }

    const std::vector<gpusim::EventId> done =
        collectives_.reduce(flat_ptrs, bucket.count, ready_ns, numeric);

    // Chain the update behind the reduction: the default stream waits on
    // the comm-done event, then a host callback scatters the averaged
    // gradient back into the param diffs. Solver kernels queued later on
    // the default stream therefore see the reduced values.
    for (int d = 0; d < n; ++d) {
      gpusim::DeviceEngine& dev = fleet_->device(d).device();
      dev.wait_event(gpusim::kDefaultStream, done[static_cast<std::size_t>(d)]);
      if (!numeric) continue;
      auto job = std::make_unique<UnpackJob>();
      job->src = flat_[b][static_cast<std::size_t>(d)].data();
      job->scale = inv_n;
      mc::Net& net = *nets_[static_cast<std::size_t>(d)];
      for (const std::size_t pi : bucket.params) {
        mc::Blob& p = *net.learnable_params()[pi];
        job->dsts.emplace_back(p.mutable_diff(), p.count());
      }
      UnpackJob* raw = job.get();
      jobs_.push_back(std::move(job));
      dev.host_callback(gpusim::kDefaultStream, [raw] {
        std::size_t off = 0;
        for (const auto& [dst, count] : raw->dsts) {
          for (std::size_t k = 0; k < count; ++k) {
            dst[k] = raw->src[off + k] * raw->scale;
          }
          off += count;
        }
      });
    }
  }

  for (int d = 0; d < n; ++d) {
    solvers_[static_cast<std::size_t>(d)]->apply_update(lr);
  }
  // total_loss synchronizes each device, completing the iteration's
  // simulated work (transfers, unpacks, updates) before the next one
  // reuses the staging memory.
  float loss = 0.0f;
  for (int d = 0; d < n; ++d) {
    loss += nets_[static_cast<std::size_t>(d)]->total_loss();
  }
  loss *= inv_n;
  for (int d = 0; d < n; ++d) {
    solvers_[static_cast<std::size_t>(d)]->note_step(loss);
  }
}

void FleetTrainer::step(int iterations,
                        const std::function<void(int, float)>& on_iteration) {
  for (int it = 0; it < iterations; ++it) {
    train_one_iteration();
    if (on_iteration) on_iteration(iter(), last_loss());
  }
}

}  // namespace comm
