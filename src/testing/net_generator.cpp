#include "testing/net_generator.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "testing/differential.hpp"

namespace glpfuzz {

namespace {

template <typename T>
T pick(glp::Rng& rng, std::initializer_list<T> values) {
  const auto* begin = values.begin();
  return begin[rng.next_below(values.size())];
}

bool chance(glp::Rng& rng, double p) { return rng.next_double() < p; }

int conv_out(int in, int kernel, int pad, int stride) {
  return (in + 2 * pad - kernel) / stride + 1;
}

mc::FillerSpec random_weight_filler(glp::Rng& rng) {
  const double r = rng.next_double();
  if (r < 0.5) return mc::FillerSpec::xavier();
  if (r < 0.8) return mc::FillerSpec::gaussian(0.05f);
  return mc::FillerSpec::uniform(-0.1f, 0.1f);
}

/// Tracks the (channels, height, width) of the chain's current blob.
struct Shape {
  int c = 0;
  int h = 0;
  int w = 0;
};

/// Builds layer specs with unique names and shape bookkeeping.
struct Builder {
  mc::NetSpec spec;
  int counter = 0;

  std::string fresh(const std::string& stem) {
    return stem + std::to_string(++counter);
  }

  mc::LayerSpec& add(const std::string& type, const std::string& stem,
                     std::vector<std::string> bottoms,
                     std::vector<std::string> tops) {
    mc::LayerSpec layer;
    layer.type = type;
    layer.name = stem;
    layer.bottoms = std::move(bottoms);
    layer.tops = std::move(tops);
    spec.layers.push_back(std::move(layer));
    return spec.layers.back();
  }
};

/// Append a convolution; returns the top blob name and updates `shape`.
std::string add_conv(Builder& b, glp::Rng& rng, const std::string& bottom,
                     Shape& shape) {
  const std::string name = b.fresh("conv");
  mc::LayerSpec& layer = b.add("Convolution", name, {bottom}, {name});
  mc::LayerParams& p = layer.params;
  p.num_output = pick(rng, {4, 6, 8, 12, 16});
  // Odd kernels with "same" padding keep the spatial size; a stride-2
  // variant shrinks it when there is room.
  p.kernel_size = shape.h >= 5 && shape.w >= 5 ? pick(rng, {1, 3, 5})
                  : shape.h >= 3 && shape.w >= 3 ? pick(rng, {1, 3})
                                                 : 1;
  p.pad = p.kernel_size / 2;
  p.stride = 1;
  if (chance(rng, 0.2) &&
      conv_out(std::min(shape.h, shape.w), p.kernel_size, p.pad, 2) >= 2) {
    p.stride = 2;
  }
  if (chance(rng, 0.15) && shape.c % 2 == 0 && p.num_output % 2 == 0) {
    p.group = 2;
  }
  p.weight_filler = random_weight_filler(rng);
  p.bias_filler = mc::FillerSpec::constant(chance(rng, 0.5) ? 0.0f : 0.05f);
  shape.c = p.num_output;
  shape.h = conv_out(shape.h, p.kernel_size, p.pad, p.stride);
  shape.w = conv_out(shape.w, p.kernel_size, p.pad, p.stride);
  return name;
}

/// Append an activation, in-place half of the time.
std::string add_activation(Builder& b, glp::Rng& rng, const std::string& bottom,
                           bool allow_in_place) {
  const char* type = pick(rng, {"ReLU", "TanH", "Sigmoid", "AbsVal"});
  const std::string name = b.fresh("act");
  const bool in_place = allow_in_place && chance(rng, 0.5);
  mc::LayerSpec& layer =
      b.add(type, name, {bottom}, {in_place ? bottom : name});
  if (std::string(type) == "ReLU" && chance(rng, 0.3)) {
    layer.params.negative_slope = 0.1f;
  }
  return in_place ? bottom : name;
}

/// A stride-1, same-padded conv for inception branches: spatial size is
/// preserved so any set of sibling branches can merge afterwards.
std::string add_branch_conv(Builder& b, glp::Rng& rng, const std::string& bottom,
                            Shape& shape, int num_output) {
  const std::string name = b.fresh("bconv");
  mc::LayerSpec& layer = b.add("Convolution", name, {bottom}, {name});
  mc::LayerParams& p = layer.params;
  p.num_output = num_output;
  p.kernel_size = shape.h >= 3 && shape.w >= 3 && chance(rng, 0.6) ? 3 : 1;
  p.pad = p.kernel_size / 2;
  p.stride = 1;
  p.weight_filler = random_weight_filler(rng);
  p.bias_filler = mc::FillerSpec::constant(chance(rng, 0.5) ? 0.0f : 0.05f);
  shape.c = num_output;
  return name;
}

/// An in-place ReLU directly after a conv — the GEMM-epilogue fusion shape.
std::string add_relu(Builder& b, glp::Rng& rng, const std::string& bottom) {
  const std::string name = b.fresh("relu");
  mc::LayerSpec& layer = b.add("ReLU", name, {bottom}, {bottom});
  if (chance(rng, 0.3)) layer.params.negative_slope = 0.1f;
  return bottom;
}

/// A run of stacked elementwise activations — chain-coalescing fodder.
std::string add_act_chain(Builder& b, glp::Rng& rng, std::string cur, int len) {
  for (int i = 0; i < len; ++i) cur = add_activation(b, rng, cur, true);
  return cur;
}

}  // namespace

mc::NetSpec random_net(glp::Rng& rng, const NetGenOptions& options) {
  Builder b;
  b.spec.name = "fuzz";

  // --- data ---------------------------------------------------------------
  mc::DatasetSpec dataset;
  dataset.name = "random";
  dataset.num_classes = pick(rng, {2, 3, 5, 10});
  dataset.channels = pick(rng, {1, 3});
  dataset.height = pick(rng, {6, 8, 10, 12});
  dataset.width = chance(rng, 0.8) ? dataset.height : pick(rng, {6, 8, 10, 12});
  dataset.train_size = 128;
  dataset.noise = 0.3f;
  dataset.shuffle = chance(rng, 0.25);

  const int batch = std::min(
      options.max_batch,
      pick(rng, {3, 4, 8, 12, 16, 24, 32, 33, 40, 48, 64}));

  mc::LayerSpec& data = b.add("Data", "data", {}, {"data", "label"});
  data.params.dataset = dataset;
  data.params.batch_size = batch;

  Shape shape{dataset.channels, dataset.height, dataset.width};
  std::string cur = "data";

  // --- body ---------------------------------------------------------------
  const int span = options.max_body_layers - options.min_body_layers + 1;
  const int stages =
      options.min_body_layers + static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(span)));
  const bool branch =
      options.allow_branches && stages >= 3 && chance(rng, 0.35);
  const int branch_at =
      branch ? 1 + static_cast<int>(rng.next_below(
                       static_cast<std::uint64_t>(stages - 1)))
             : -1;

  for (int stage = 0; stage < stages; ++stage) {
    if (stage == branch_at) {
      // Two conv branches from `cur`, merged by Concat or Eltwise. Both
      // branches preserve the spatial size so the merge always shapes.
      const bool eltwise = chance(rng, 0.4);
      Shape sa = shape, sb = shape;
      std::string a = add_conv(b, rng, cur, sa);
      std::string br = add_conv(b, rng, cur, sb);
      {
        // Both merge flavours need matching spatial sizes, so branch B
        // reuses branch A's kernel geometry; Eltwise additionally needs
        // matching channel counts.
        mc::LayerSpec& lb = b.spec.layers.back();
        const mc::LayerSpec& la = b.spec.layers[b.spec.layers.size() - 2];
        lb.params.stride = la.params.stride;
        lb.params.kernel_size = la.params.kernel_size;
        lb.params.pad = la.params.pad;
        if (eltwise) {
          lb.params.num_output = la.params.num_output;
          lb.params.group = 1;
          sb = sa;
        } else {
          sb.h = sa.h;
          sb.w = sa.w;
        }
      }
      if (chance(rng, 0.5)) a = add_activation(b, rng, a, true);
      if (chance(rng, 0.5)) br = add_activation(b, rng, br, true);
      const std::string merged = b.fresh(eltwise ? "sum" : "cat");
      mc::LayerSpec& merge =
          b.add(eltwise ? "Eltwise" : "Concat", merged, {a, br}, {merged});
      if (eltwise) {
        merge.params.eltwise = mc::EltwiseOp::kSum;
        shape = sa;
      } else {
        merge.params.axis = 1;
        shape = sa;
        shape.c = sa.c + sb.c;
      }
      cur = merged;
      continue;
    }

    // Weighted pick among the ops legal for the current shape. The first
    // stage is always a convolution so every net exercises the
    // scope-parallel dispatch path.
    const double r = stage == 0 ? 0.0 : rng.next_double();
    if (r < 0.40) {
      cur = add_conv(b, rng, cur, shape);
    } else if (r < 0.55 && shape.h >= 4 && shape.w >= 4) {
      const std::string name = b.fresh("pool");
      mc::LayerSpec& layer = b.add("Pooling", name, {cur}, {name});
      layer.params.pool =
          chance(rng, 0.5) ? mc::PoolMethod::kMax : mc::PoolMethod::kAve;
      layer.params.kernel_size = 2;
      layer.params.stride = 2;
      // Caffe's ceil-mode pooling output.
      shape.h = (shape.h - 2 + 1) / 2 + 1;
      shape.w = (shape.w - 2 + 1) / 2 + 1;
      cur = name;
    } else if (r < 0.65 && options.allow_deconv && shape.h <= 12 &&
               shape.w <= 12) {
      const std::string name = b.fresh("deconv");
      mc::LayerSpec& layer = b.add("Deconvolution", name, {cur}, {name});
      layer.params.num_output = pick(rng, {4, 8});
      layer.params.kernel_size = 2;
      layer.params.stride = 2;
      layer.params.weight_filler = random_weight_filler(rng);
      shape.c = layer.params.num_output;
      shape.h = shape.h * 2;
      shape.w = shape.w * 2;
      cur = name;
    } else if (r < 0.78) {
      cur = add_activation(b, rng, cur, true);
    } else if (r < 0.88 && shape.c >= 3) {
      const std::string name = b.fresh("lrn");
      mc::LayerSpec& layer = b.add("LRN", name, {cur}, {name});
      layer.params.local_size = pick(rng, {3, 5});
      cur = name;
    } else if (r < 0.94) {
      const std::string name = b.fresh("drop");
      const bool in_place = chance(rng, 0.5);
      mc::LayerSpec& layer =
          b.add("Dropout", name, {cur}, {in_place ? cur : name});
      layer.params.dropout_ratio = pick(rng, {0.3f, 0.5f});
      if (!in_place) cur = name;
    } else {
      cur = add_conv(b, rng, cur, shape);
    }
  }

  // --- head ---------------------------------------------------------------
  mc::LayerSpec& ip = b.add("InnerProduct", "ip_head", {cur}, {"ip_head"});
  ip.params.num_output = dataset.num_classes;
  ip.params.weight_filler = random_weight_filler(rng);
  b.add("SoftmaxWithLoss", "loss", {"ip_head", "label"}, {"loss"});
  return std::move(b.spec);
}

mc::NetSpec random_inference_net(glp::Rng& rng, const NetGenOptions& options) {
  Builder b;
  b.spec.name = "serve_fuzz";

  mc::LayerSpec& in = b.add("Input", "input", {}, {"data"});
  in.params.batch_size =
      1 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(std::min(8, options.max_batch))));
  in.params.dataset.channels = pick(rng, {1, 3});
  in.params.dataset.height = pick(rng, {6, 8, 10, 12});
  in.params.dataset.width =
      chance(rng, 0.8) ? in.params.dataset.height : pick(rng, {6, 8, 10, 12});

  Shape shape{in.params.dataset.channels, in.params.dataset.height,
              in.params.dataset.width};
  std::string cur = "data";

  // --- body: convs, pools, activations only — everything here must be
  // deterministic at inference time (no Dropout) and forward-only.
  const int span = options.max_body_layers - options.min_body_layers + 1;
  const int stages =
      options.min_body_layers + static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(span)));
  for (int stage = 0; stage < stages; ++stage) {
    // The first stage is always a convolution so every net exercises the
    // scope-parallel per-sample dispatch the serving scheduler slices.
    const double r = stage == 0 ? 0.0 : rng.next_double();
    if (r < 0.50) {
      cur = add_conv(b, rng, cur, shape);
    } else if (r < 0.65 && shape.h >= 4 && shape.w >= 4) {
      const std::string name = b.fresh("pool");
      mc::LayerSpec& layer = b.add("Pooling", name, {cur}, {name});
      layer.params.pool =
          chance(rng, 0.5) ? mc::PoolMethod::kMax : mc::PoolMethod::kAve;
      layer.params.kernel_size = 2;
      layer.params.stride = 2;
      shape.h = (shape.h - 2 + 1) / 2 + 1;
      shape.w = (shape.w - 2 + 1) / 2 + 1;
      cur = name;
    } else if (r < 0.72 && options.allow_deconv && shape.h <= 12 &&
               shape.w <= 12) {
      const std::string name = b.fresh("deconv");
      mc::LayerSpec& layer = b.add("Deconvolution", name, {cur}, {name});
      layer.params.num_output = pick(rng, {4, 8});
      layer.params.kernel_size = 2;
      layer.params.stride = 2;
      layer.params.weight_filler = random_weight_filler(rng);
      shape.c = layer.params.num_output;
      shape.h = shape.h * 2;
      shape.w = shape.w * 2;
      cur = name;
    } else {
      cur = add_activation(b, rng, cur, true);
    }
  }

  // --- head: class scores + Softmax, no loss or labels.
  mc::LayerSpec& ip = b.add("InnerProduct", "ip_head", {cur}, {"ip_head"});
  ip.params.num_output = pick(rng, {2, 5, 10});
  ip.params.weight_filler = random_weight_filler(rng);
  b.add("Softmax", "prob", {"ip_head"}, {"prob"});
  return std::move(b.spec);
}

mc::NetSpec random_dag_net(glp::Rng& rng, const NetGenOptions& options) {
  Builder b;
  b.spec.name = "dag_fuzz";

  // --- data ---------------------------------------------------------------
  mc::DatasetSpec dataset;
  dataset.name = "random";
  dataset.num_classes = pick(rng, {2, 3, 5, 10});
  dataset.channels = pick(rng, {1, 3});
  dataset.height = pick(rng, {6, 8, 10});
  dataset.width = chance(rng, 0.8) ? dataset.height : pick(rng, {6, 8, 10});
  dataset.train_size = 128;
  dataset.noise = 0.3f;
  dataset.shuffle = chance(rng, 0.25);

  const int batch = std::min(options.max_batch,
                             pick(rng, {4, 8, 12, 16, 24, 32, 33, 40, 48}));
  mc::LayerSpec& data = b.add("Data", "data", {}, {"data", "label"});
  data.params.dataset = dataset;
  data.params.batch_size = batch;

  Shape shape{dataset.channels, dataset.height, dataset.width};
  std::string cur = "data";

  // --- stem: a conv (with optional epilogue-shaped ReLU) so even the
  // narrowest sample has scoped, fusable layers before the first fan-out.
  cur = add_branch_conv(b, rng, cur, shape, pick(rng, {4, 6, 8}));
  if (chance(rng, 0.6)) cur = add_relu(b, rng, cur);

  // --- inception units ----------------------------------------------------
  const int units = chance(rng, 0.6) ? 2 : 1;
  std::string aux_tap;
  for (int u = 0; u < units; ++u) {
    const int max_b = std::clamp(options.max_branches, 2, 6);
    const int width =
        2 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(max_b - 1)));
    if (width == 2 && chance(rng, 0.35)) {
      // Diamond skip: Eltwise(cur, f(cur)). The transformed path keeps the
      // channel count so the sum always shapes; the pass-through edge makes
      // `cur` a two-consumer blob, which the conflict tracker must fan out.
      Shape sb = shape;
      std::string tr = add_branch_conv(b, rng, cur, sb, shape.c);
      if (chance(rng, 0.7)) tr = add_relu(b, rng, tr);
      if (chance(rng, 0.4)) tr = add_act_chain(b, rng, tr, pick(rng, {2, 3}));
      const std::string merged = b.fresh("sum");
      mc::LayerSpec& merge = b.add("Eltwise", merged, {cur, tr}, {merged});
      merge.params.eltwise = mc::EltwiseOp::kSum;
      cur = merged;
    } else {
      // Wide fan-out: `width` independent conv branches merged by Concat.
      std::vector<std::string> tops;
      int channels = 0;
      for (int br = 0; br < width; ++br) {
        Shape sb = shape;
        std::string t = add_branch_conv(b, rng, cur, sb, pick(rng, {4, 6, 8}));
        if (chance(rng, 0.65)) t = add_relu(b, rng, t);
        if (chance(rng, 0.3)) {
          t = add_branch_conv(b, rng, t, sb, sb.c);
          if (chance(rng, 0.5)) t = add_relu(b, rng, t);
        }
        if (chance(rng, 0.3)) t = add_act_chain(b, rng, t, pick(rng, {2, 3}));
        tops.push_back(t);
        channels += sb.c;
      }
      const std::string merged = b.fresh("cat");
      mc::LayerSpec& merge = b.add("Concat", merged, std::move(tops), {merged});
      merge.params.axis = 1;
      shape.c = channels;
      cur = merged;
    }
    // Post-merge elementwise chain: the producer (Concat/Eltwise) is not an
    // epilogue host, so this exercises pure launch coalescing.
    if (chance(rng, 0.3)) cur = add_act_chain(b, rng, cur, pick(rng, {2, 3}));
    if (u + 1 < units && shape.h >= 4 && shape.w >= 4 && chance(rng, 0.5)) {
      const std::string name = b.fresh("pool");
      mc::LayerSpec& layer = b.add("Pooling", name, {cur}, {name});
      layer.params.pool =
          chance(rng, 0.5) ? mc::PoolMethod::kMax : mc::PoolMethod::kAve;
      layer.params.kernel_size = 2;
      layer.params.stride = 2;
      shape.h = (shape.h - 2 + 1) / 2 + 1;
      shape.w = (shape.w - 2 + 1) / 2 + 1;
      cur = name;
    }
    if (u == 0) aux_tap = cur;
  }

  // --- heads: main classifier plus (sometimes) a GoogLeNet-style auxiliary
  // loss from the first unit — two loss ops with no dependency between
  // them, i.e. parallel sinks in the backward DAG.
  if (chance(rng, 0.4)) {
    mc::LayerSpec& aip = b.add("InnerProduct", "aux_ip", {aux_tap}, {"aux_ip"});
    aip.params.num_output = dataset.num_classes;
    aip.params.weight_filler = random_weight_filler(rng);
    mc::LayerSpec& aloss =
        b.add("SoftmaxWithLoss", "aux_loss", {"aux_ip", "label"}, {"aux_loss"});
    aloss.params.loss_weight = 0.3f;
  }
  mc::LayerSpec& ip = b.add("InnerProduct", "ip_head", {cur}, {"ip_head"});
  ip.params.num_output = dataset.num_classes;
  ip.params.weight_filler = random_weight_filler(rng);
  b.add("SoftmaxWithLoss", "loss", {"ip_head", "label"}, {"loss"});
  return std::move(b.spec);
}

gpusim::DeviceProps random_device(glp::Rng& rng) {
  const std::vector<gpusim::DeviceProps> catalogue = gpusim::DeviceTable::all();
  gpusim::DeviceProps d =
      catalogue[rng.next_below(catalogue.size())];

  // Perturb every limit the analytical model consumes, around the
  // catalogue values (the paper's Table 3 plus one GPU per generation).
  d.sm_count = std::clamp(
      static_cast<int>(d.sm_count * (0.5 + rng.next_double() * 1.5)), 1, 120);
  d.cores_per_sm = pick(rng, {32, 64, 128});
  d.clock_ghz *= 0.7 + rng.next_double() * 0.8;
  d.max_threads_per_sm = pick(rng, {1024, 1536, 2048});
  d.max_blocks_per_sm = pick(rng, {8, 16, 32});
  // ≥ 32 KiB: the largest GEMM tile wants 16 KiB per block.
  d.shared_mem_per_sm = static_cast<std::size_t>(pick(rng, {32, 48, 64, 96})) * 1024;
  d.registers_per_sm = pick(rng, {32 * 1024, 64 * 1024});
  d.max_concurrent_kernels = pick(rng, {1, 2, 4, 8, 16, 32, 64, 128});
  d.mem_bandwidth_gbs = 100.0 + rng.next_double() * 800.0;
  d.pcie_bandwidth_gbs = 6.0 + rng.next_double() * 10.0;
  d.kernel_launch_overhead_us = pick(rng, {1.0, 2.0, 5.0, 10.0, 20.0});
  d.kernel_start_latency_us = pick(rng, {0.5, 1.0, 2.0, 5.0});
  d.name += "-fuzz";
  return d;
}

glp4nn::SchedulerOptions random_scheduler_options(glp::Rng& rng) {
  glp4nn::SchedulerOptions o;
  o.policy = chance(rng, 0.7) ? glp4nn::DispatchPolicy::kRoundRobin
                              : glp4nn::DispatchPolicy::kBlockCyclic;
  o.strict_repro = chance(rng, 0.4);
  if (chance(rng, 0.3)) o.fixed_streams = pick(rng, {1, 2, 3, 4, 5, 8, 16});
  if (chance(rng, 0.25)) o.max_streams = pick(rng, {1, 2, 3, 4, 6, 8});
  return o;
}

FuzzCase make_case(std::uint64_t seed, const NetGenOptions& options) {
  // Decorrelate nearby seeds (1, 2, 3, ...) with a SplitMix64-style mix.
  glp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  FuzzCase c;
  c.seed = seed;
  c.dag = options.dag_corpus;
  c.net = c.dag ? random_dag_net(rng, options) : random_net(rng, options);
  c.net.name = (c.dag ? "dagfuzz_" : "fuzz_") + std::to_string(seed);
  c.device = random_device(rng);
  c.options = random_scheduler_options(rng);
  c.iters = chance(rng, 0.7) ? 2 : 3;
  return c;
}

mc::NetSpec strip_dropout(const mc::NetSpec& spec) {
  mc::NetSpec out;
  out.name = spec.name;
  // top name → what it resolves to once its producer is dropped.
  std::map<std::string, std::string> alias;
  auto resolve = [&](const std::string& name) {
    auto it = alias.find(name);
    return it == alias.end() ? name : it->second;
  };
  for (const mc::LayerSpec& l : spec.layers) {
    if (l.type == "Dropout") {
      // In-place dropout (top == bottom) vanishes without a trace; the
      // out-of-place form forwards its bottom under the top's name.
      if (!l.tops.empty() && !l.bottoms.empty() &&
          l.tops.front() != l.bottoms.front()) {
        alias[l.tops.front()] = resolve(l.bottoms.front());
      }
      continue;
    }
    mc::LayerSpec kept = l;
    for (std::string& b : kept.bottoms) b = resolve(b);
    out.layers.push_back(std::move(kept));
  }
  return out;
}

FuzzCase make_fleet_case(std::uint64_t seed, const NetGenOptions& gen) {
  FuzzCase c = make_case(seed, gen);
  c.net = strip_dropout(c.net);
  if (!bit_exact_contract(c.net, c.options)) {
    // The fleet contract is bit-exactness; force the regime that makes
    // per-device numerics independent of the stream layout.
    c.options.strict_repro = true;
    c.options.policy = glp4nn::DispatchPolicy::kRoundRobin;
  }
  return c;
}

ServeCase make_serving_case(std::uint64_t seed, const NetGenOptions& options) {
  // Decorrelate nearby seeds, and keep this stream independent from the
  // training fuzzer's by a different additive constant.
  glp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e91feULL);
  ServeCase c;
  c.seed = seed;

  const int tenants = chance(rng, 0.4) ? 2 : 1;
  for (int t = 0; t < tenants; ++t) {
    mc::NetSpec net = random_inference_net(rng, options);
    net.name = "serve_fuzz_" + std::to_string(seed) + "_t" + std::to_string(t);
    c.nets.push_back(std::move(net));
  }
  c.device = random_device(rng);

  c.max_batch = pick(rng, {2, 3, 4, 6, 8});
  c.coalesce = chance(rng, 0.5);
  c.slots = pick(rng, {1, 2, 4});

  c.trace.requests = 16 + static_cast<int>(rng.next_below(33));  // 16..48
  c.trace.rate_rps = pick(rng, {1000.0, 3000.0, 8000.0, 20000.0});
  c.trace.arrival = pick(rng, {serving::ArrivalProcess::kPoisson,
                               serving::ArrivalProcess::kBursty,
                               serving::ArrivalProcess::kUniform,
                               serving::ArrivalProcess::kDiurnal,
                               serving::ArrivalProcess::kFlashCrowd,
                               serving::ArrivalProcess::kHeavyTail,
                               serving::ArrivalProcess::kAdversarial});
  c.trace.tenants = tenants;
  c.trace.deadline_ms = 0.0;  // the contract compares *served* outputs
  c.trace.seed = seed ^ 0xbadc0ffeULL;
  c.trace.fill_inputs = true;
  return c;
}

std::string ServeCase::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " tenants=" << nets.size() << " (";
  for (std::size_t t = 0; t < nets.size(); ++t) {
    os << (t ? "+" : "") << nets[t].layers.size();
  }
  os << " layers) batch<=" << max_batch << (coalesce ? " +coalesce" : "")
     << " slots=" << slots
     << " trace=" << trace.requests << "@"
     << static_cast<int>(trace.rate_rps) << "rps/"
     << serving::arrival_name(trace.arrival) << " device=" << device.name
     << " (C=" << device.max_concurrent_kernels << ")";
  return os.str();
}

std::string FuzzCase::summary() const {
  int batch = 0;
  for (const mc::LayerSpec& l : net.layers) {
    if (l.type == "Data") batch = l.params.batch_size;
  }
  std::ostringstream os;
  os << "seed=" << seed << " net=" << net.name << " (" << net.layers.size()
     << " layers, batch " << batch << ") device=" << device.name
     << " (C=" << device.max_concurrent_kernels << ", " << device.sm_count
     << " SMs) policy="
     << (options.policy == glp4nn::DispatchPolicy::kRoundRobin ? "rr" : "bc")
     << " strict=" << (options.strict_repro ? 1 : 0)
     << " fixed=" << options.fixed_streams << " max=" << options.max_streams
     << " iters=" << iters << (dag ? " dag=1" : "");
  return os.str();
}

}  // namespace glpfuzz
