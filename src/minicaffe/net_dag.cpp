#include "minicaffe/net_dag.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/log.hpp"
#include "kernels/cpu_math.hpp"

namespace mc {

namespace {

/// Whole-blob single-launch elementwise layers the chain-coalescing pass
/// may merge. Dropout is excluded: its host-side mask draw is already
/// issue-ordered, but keeping it un-fused keeps the mask kernel's launch
/// attribution (and its fault behaviour) identical to the serial run's.
bool chainable_elementwise(const std::string& type) {
  return type == "ReLU" || type == "Sigmoid" || type == "TanH" ||
         type == "AbsVal" || type == "Power" || type == "Exp";
}

/// Scope this layer's pass opens on the dispatcher, or "" when the layer
/// launches whole-batch kernels directly.
std::string scope_of(const std::string& type, const std::string& name,
                     bool backward, bool inference) {
  if (type == "Convolution" || type == "Deconvolution") {
    return name + (backward ? "/bwd" : "/fwd");
  }
  if (!backward && inference && type == "InnerProduct") return name + "/fwd";
  return "";
}

}  // namespace

NetDag::NetDag(Net& net) : net_(&net) { build_pass(fwd_, false); }

const std::vector<NetDag::Op>& NetDag::backward_ops() {
  if (!bwd_.built) build_pass(bwd_, true);
  return bwd_.ops;
}

std::vector<NetDag::ScheduledOp> NetDag::backward_schedule() {
  if (!bwd_.built) build_pass(bwd_, true);
  return make_schedule(bwd_);
}

void NetDag::build_pass(Pass& pass, bool backward) {
  pass.is_backward = backward;
  pass.ops.clear();
  const ExecContext& ec = *net_->ec_;
  const int num_layers = static_cast<int>(net_->layers_.size());

  std::vector<int> order;
  if (!backward) {
    for (int li = 0; li < num_layers; ++li) order.push_back(li);
  } else {
    for (int li = num_layers; li-- > 0;) {
      if (net_->layers_[li]->has_backward()) order.push_back(li);
    }
  }

  // Memory-conflict tracking per (blob, data|diff) buffer: a read depends
  // on the buffer's last writer; a write depends on the last writer AND
  // every reader since (WAR), then becomes the new last writer. Every
  // conflict thus becomes a DAG edge, and write-write chains stay totally
  // ordered in issue order — conflict-serializable to the serial pass.
  enum { kData = 0, kDiff = 1 };
  struct BufState {
    int last_writer = -1;
    std::vector<int> readers;
  };
  std::map<std::pair<const Blob*, int>, BufState> bufs;

  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    const int li = order[oi];
    Layer* layer = net_->layers_[li].get();
    Op op;
    op.layer = li;
    op.name = layer->name();
    op.type = layer->type();
    op.prefix = op.name + (backward ? "/bwd" : "/fwd");
    op.scope = scope_of(op.type, op.name, backward, ec.inference);

    std::set<std::pair<const Blob*, int>> reads;
    std::set<std::pair<const Blob*, int>> writes;
    if (!backward) {
      for (Blob* b : net_->bottoms_[li]) reads.insert({b, kData});
      for (const auto& p : layer->param_blobs()) reads.insert({p.get(), kData});
      for (Blob* t : net_->tops_[li]) writes.insert({t, kData});
      if (op.type == "BatchNorm") {
        // Training-mode BatchNorm updates its moving statistics in
        // forward; shared-stat siblings must serialise.
        for (const auto& p : layer->param_blobs()) writes.insert({p.get(), kData});
      }
    } else {
      for (Blob* b : net_->bottoms_[li]) reads.insert({b, kData});
      for (Blob* t : net_->tops_[li]) {
        reads.insert({t, kData});
        reads.insert({t, kDiff});
      }
      for (const auto& p : layer->param_blobs()) reads.insert({p.get(), kData});
      for (std::size_t bi = 0; bi < net_->bottoms_[li].size(); ++bi) {
        if (net_->propagate_[li][bi]) {
          writes.insert({net_->bottoms_[li][bi], kDiff});
        }
      }
      for (const auto& p : layer->param_blobs()) writes.insert({p.get(), kDiff});
    }

    std::set<int> deps;
    const int self = static_cast<int>(oi);
    for (const auto& key : reads) {
      BufState& s = bufs[key];
      if (s.last_writer >= 0) deps.insert(s.last_writer);
      s.readers.push_back(self);
    }
    for (const auto& key : writes) {
      BufState& s = bufs[key];
      if (s.last_writer >= 0 && s.last_writer != self) deps.insert(s.last_writer);
      for (int r : s.readers) {
        if (r != self) deps.insert(r);
      }
      s.last_writer = self;
      s.readers.clear();
    }
    deps.erase(self);
    op.deps.assign(deps.begin(), deps.end());
    pass.ops.push_back(std::move(op));
  }

  if (!backward) plan_fusion(pass);
  place_ops(pass);
  pass.built = true;
}

void NetDag::plan_fusion(Pass& pass) {
  const ExecContext& ec = *net_->ec_;
  std::vector<Op>& ops = pass.ops;
  const int n = static_cast<int>(ops.size());

  // Mechanism A — GEMM epilogue: an in-place ReLU whose only DAG edge is
  // its producing Convolution / (training) InnerProduct GEMM is absorbed
  // into that GEMM. deps == {producer} proves no other op reads the
  // pre-activation values: any earlier reader of the top would have
  // forced a WAR edge onto the in-place ReLU.
  for (int j = 0; j < n; ++j) {
    Op& relu = ops[j];
    if (relu.type != "ReLU" || relu.deps.size() != 1) continue;
    const int i = relu.deps.front();
    Op& prod = ops[i];
    const bool fusible_producer =
        prod.type == "Convolution" ||
        (prod.type == "InnerProduct" && !ec.inference);
    if (!fusible_producer) continue;
    if (!net_->layers_[prod.layer]->params().bias_term) continue;
    if (relu_epilogues_.count(prod.name) != 0) continue;
    // In place on the producer's (single) top blob.
    const std::vector<Blob*>& rb = net_->bottoms_[relu.layer];
    const std::vector<Blob*>& rt = net_->tops_[relu.layer];
    const std::vector<Blob*>& pt = net_->tops_[prod.layer];
    if (rb.size() != 1 || rt.size() != 1 || pt.size() != 1) continue;
    if (rb[0] != rt[0] || rb[0] != pt[0]) continue;
    relu_epilogues_.emplace(prod.name,
                            net_->layers_[relu.layer]->params().negative_slope);
    relu.absorbed = true;
    relu.absorbed_into = i;
  }

  // Mechanism B — launch coalescing: a maximal run of consecutive
  // single-launch elementwise ops, each depending only on its
  // predecessor, is staged and submitted as one merged launch.
  for (int i = 0; i < n;) {
    if (ops[i].absorbed || !chainable_elementwise(ops[i].type)) {
      ++i;
      continue;
    }
    int j = i + 1;
    while (j < n && !ops[j].absorbed && chainable_elementwise(ops[j].type) &&
           ops[j].deps.size() == 1 && ops[j].deps.front() == j - 1) {
      ++j;
    }
    if (j - i >= 2) {
      for (int m = i; m < j; ++m) ops[m].fused_head = i;
    }
    i = j;
  }
}

void NetDag::place_ops(Pass& pass) {
  std::vector<Op>& ops = pass.ops;
  const int n = static_cast<int>(ops.size());

  std::vector<kern::DagOp> dag_ops(ops.size());
  for (int i = 0; i < n; ++i) {
    dag_ops[i].scope = ops[i].scope;
    dag_ops[i].deps = ops[i].deps;
  }
  const std::vector<kern::DagPlacement> placements =
      net_->ec_->dispatcher->plan_dag(dag_ops);
  GLP_REQUIRE(placements.size() == ops.size(),
              "plan_dag returned " << placements.size() << " placements for "
                                   << ops.size() << " ops");
  for (int i = 0; i < n; ++i) {
    ops[i].stream = placements[i].stream;
    ops[i].chain = placements[i].chain;
    ops[i].slot = placements[i].slot;
    ops[i].num_slots = placements[i].num_slots;
    ops[i].concurrent_scopes = placements[i].concurrent_scopes;
  }

  // Fused work executes inside its producer / chain head: inherit that
  // op's placement so stream FIFO covers the internal edges.
  auto alias = [&](int i) {
    if (ops[i].absorbed) return ops[i].absorbed_into;
    if (ops[i].fused_head >= 0) return ops[i].fused_head;
    return i;
  };
  for (int i = 0; i < n; ++i) {
    const int a = alias(i);
    if (a == i) continue;
    ops[i].stream = ops[a].stream;
    ops[i].chain = ops[a].chain;
    ops[i].slot = ops[a].slot;
    ops[i].num_slots = ops[a].num_slots;
  }

  for (int i = 0; i < n; ++i) {
    std::set<int> eff;
    for (int d : ops[i].deps) {
      const int a = alias(d);
      if (a != i) eff.insert(a);
    }
    ops[i].effective_deps.assign(eff.begin(), eff.end());
  }

  // An op needs a completion event iff some cross-stream consumer must
  // wait on it. Edges touching the default stream need none: the legacy
  // default stream is a two-sided barrier and the host issues ops in
  // topological order.
  for (int i = 0; i < n; ++i) {
    if (alias(i) != i) continue;
    if (ops[i].stream == gpusim::kDefaultStream) continue;
    for (int e : ops[i].effective_deps) {
      if (ops[e].stream == gpusim::kDefaultStream) continue;
      if (ops[e].stream != ops[i].stream) ops[e].needs_event = true;
    }
  }
}

void NetDag::run_pass(Pass& pass) {
  ExecContext& ec = *net_->ec_;
  gpusim::DeviceEngine& dev = ec.ctx->device();
  std::vector<Op>& ops = pass.ops;
  const int n = static_cast<int>(ops.size());

  const gpusim::StreamId saved_home = ec.home_stream;
  const std::map<std::string, float>* saved_epilogues = ec.fused_relu_epilogues;
  kern::Stager* saved_stager = ec.stager;
  if (!pass.is_backward) ec.fused_relu_epilogues = &relu_epilogues_;

  auto issue = [&](int i) {
    const int li = ops[i].layer;
    Layer* layer = net_->layers_[li].get();
    if (pass.is_backward) {
      layer->backward(net_->tops_[li], net_->propagate_[li], net_->bottoms_[li]);
    } else {
      layer->forward(net_->bottoms_[li], net_->tops_[li]);
    }
  };

  std::vector<gpusim::EventId> events(ops.size(), 0);
  for (int i = 0; i < n; ++i) {
    Op& op = ops[i];
    if (op.absorbed) continue;                          // runs inside producer
    if (op.fused_head >= 0 && op.fused_head != i) continue;  // inside head
    ec.home_stream = op.stream;

    for (int e : op.effective_deps) {
      if (op.stream == gpusim::kDefaultStream) continue;
      if (ops[e].stream == gpusim::kDefaultStream) continue;
      if (ops[e].stream == op.stream) continue;  // stream FIFO covers it
      if (events[e] != 0) dev.wait_event(op.stream, events[e]);
    }

    const bool scoped = !op.scope.empty();
    if (scoped) {
      ec.dispatcher->bind_dag_op(
          {op.stream, op.slot, op.num_slots, op.concurrent_scopes});
    }
    if (op.fused_head == i) {
      kern::Stager stager;
      stager.armed = true;
      ec.stager = &stager;
      for (int m = i; m < n && ops[m].fused_head == i; ++m) issue(m);
      ec.stager = saved_stager;
      stager.flush(*ec.ctx, op.prefix + "/fused_chain");
    } else {
      issue(i);
    }
    if (scoped) ec.dispatcher->clear_dag_op();

    if (op.needs_event) events[i] = dev.record_event(op.stream);
  }

  ec.home_stream = saved_home;
  ec.fused_relu_epilogues = saved_epilogues;
  ec.stager = saved_stager;
}

void NetDag::forward() { run_pass(fwd_); }

void NetDag::backward() {
  GLP_REQUIRE(!net_->ec_->inference,
              "Net::backward is unavailable in inference mode: the net was "
              "built forward-only (no gradient buffers)");
  if (!bwd_.built) build_pass(bwd_, true);
  // Same preamble as the serial pass: join the device, then zero the
  // gradient buffers host-side before any backward kernel is issued.
  net_->ec_->ctx->device().synchronize();
  if (net_->ec_->numeric()) {
    for (auto& [name, blob] : net_->blobs_) {
      if (net_->blob_needs_grad_[name]) {
        kern::cpu::fill(blob->count(), 0.0f, blob->mutable_diff());
      }
    }
  }
  run_pass(bwd_);
}

std::vector<NetDag::ScheduledOp> NetDag::make_schedule(const Pass& pass) const {
  const std::vector<Op>& ops = pass.ops;
  const int n = static_cast<int>(ops.size());
  std::vector<int> remap(ops.size(), -1);
  std::vector<ScheduledOp> out;
  for (int i = 0; i < n; ++i) {
    if (ops[i].absorbed || (ops[i].fused_head >= 0 && ops[i].fused_head != i)) {
      continue;
    }
    remap[static_cast<std::size_t>(i)] = static_cast<int>(out.size());
    ScheduledOp s;
    s.prefix = ops[i].prefix;
    s.stream = ops[i].stream;
    for (int e : ops[i].effective_deps) {
      const int r = remap[static_cast<std::size_t>(e)];
      if (r >= 0) s.deps.push_back(r);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mc
