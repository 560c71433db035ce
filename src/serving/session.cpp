#include "serving/session.hpp"

#include <cstring>

#include "common/check.hpp"

namespace serving {

namespace {
/// Seed of every replica's RNG (the weight fillers draw from it).
constexpr std::uint64_t kFillerSeed = 0x5eedULL;
}  // namespace

int replica_batch_for(int batch) {
  GLP_REQUIRE(batch >= 1, "batch must be positive");
  int b = 1;
  while (b < batch) b <<= 1;
  return b;
}

InferenceSession::InferenceSession(scuda::Context& ctx,
                                   kern::KernelDispatcher& dispatcher,
                                   mc::NetSpec spec, SessionOptions opts)
    : ctx_(&ctx), dispatcher_(&dispatcher), spec_(std::move(spec)),
      opts_(std::move(opts)) {
  GLP_REQUIRE(!spec_.layers.empty(), "servable spec has no layers");
  GLP_REQUIRE(spec_.layers.front().type == "Input",
              "servable spec must start with an Input layer");
  GLP_REQUIRE(!spec_.layers.back().tops.empty(),
              "servable spec's last layer has no top blob");
  output_blob_ = spec_.layers.back().tops.front();

  Replica& primary = build_replica(1);
  input_size_ = primary.input->sample_size();
  output_size_ = primary.output->sample_size();
  if (!opts_.weights_path.empty()) {
    ctx_->device().synchronize();
    mc::load_weights(*primary.net, opts_.weights_path);
  }
}

InferenceSession::Replica& InferenceSession::build_replica(int batch) {
  auto r = std::make_unique<Replica>();
  r->batch = batch;
  r->ec = std::make_unique<mc::ExecContext>();
  r->ec->ctx = ctx_;
  r->ec->dispatcher = dispatcher_;
  r->ec->stager = opts_.stager;
  r->ec->mode = opts_.mode;
  r->ec->train = false;
  r->ec->inference = true;
  // Fused conv bias saves one launch per conv per sample; serving chains
  // are launch-overhead-sensitive and the fused kernel runs the identical
  // host math (gemm then add_bias), so outputs stay bit-exact.
  r->ec->fuse_conv_bias = true;
  r->ec->rng = glp::Rng(kFillerSeed);

  mc::NetSpec spec = spec_;
  spec.layers.front().params.batch_size = batch;
  // Distinct layer names per tenant ("t0:") and per batch-size replica
  // ("b4/") keep scheduler scope keys separate, so each (model, batch)
  // shape is profiled on its own. The primary keeps bare prefixed names —
  // they are what checkpoint keys are matched against.
  const bool is_primary = replicas_.empty();
  for (mc::LayerSpec& l : spec.layers) {
    l.name = is_primary
                 ? opts_.name_prefix + l.name
                 : opts_.name_prefix + "b" + std::to_string(batch) + "/" + l.name;
  }
  r->net = std::make_unique<mc::Net>(std::move(spec), *r->ec);

  for (const auto& layer : r->net->layers()) {
    if (auto* in = dynamic_cast<mc::InputLayer*>(layer.get())) {
      r->input = in;
      break;
    }
  }
  GLP_CHECK(r->input != nullptr);
  r->output = r->net->blob(output_blob_);
  GLP_CHECK(r->output != nullptr);

  if (!is_primary) r->net->share_params_from(primary());

  replicas_.push_back(std::move(r));
  return *replicas_.back();
}

InferenceSession::Replica& InferenceSession::checkout(int batch) {
  const int b = replica_batch_for(batch);
  for (auto& r : replicas_) {
    if (r->batch == b && !r->busy) {
      r->busy = true;
      return *r;
    }
  }
  Replica& r = build_replica(b);
  r.busy = true;
  return r;
}

void InferenceSession::run_batch(Replica& r,
                                 const std::vector<const float*>& samples,
                                 gpusim::StreamId home) {
  GLP_REQUIRE(static_cast<int>(samples.size()) <= r.batch,
              "batch has more samples than the replica holds");
  r.ec->home_stream = home;
  if (!samples.empty() && r.ec->numeric()) {
    float* dst = r.input->staging();
    for (int i = 0; i < r.batch; ++i) {
      // Slack slots repeat the last real sample; their outputs are never
      // read, and per-sample independence keeps the real slots bit-exact.
      const float* src = samples[std::min<std::size_t>(
          static_cast<std::size_t>(i), samples.size() - 1)];
      std::memcpy(dst + static_cast<std::size_t>(i) * input_size_, src,
                  input_size_ * sizeof(float));
    }
  }
  r.net->forward();
}

const float* InferenceSession::output_of(const Replica& r, int i) const {
  GLP_REQUIRE(i >= 0 && i < r.batch, "output index out of range");
  return r.output->data() + static_cast<std::size_t>(i) * output_size_;
}

}  // namespace serving
