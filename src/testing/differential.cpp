#include "testing/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "comm/data_parallel.hpp"
#include "common/check.hpp"
#include "core/glp4nn.hpp"
#include "kernels/dispatch.hpp"
#include "minicaffe/net_dag.hpp"
#include "minicaffe/solver.hpp"
#include "serving/server.hpp"
#include "simcuda/fleet.hpp"

namespace glpfuzz {

namespace {

// Reference-contract tolerances for train/dag cases outside
// bit_exact_contract: each loss within kLossAtol + kLossRtol·|loss|,
// each parameter within kParamTol.
constexpr double kLossRtol = 1e-2;
constexpr double kLossAtol = 1e-4;
constexpr double kParamTol = 5e-2;
/// Fleet gradient buckets: small, so the little fuzz nets still split
/// into several buckets and exercise the eager per-bucket machinery.
constexpr std::size_t kBucketBytes = std::size_t{1} << 12;

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and treats equal
/// NaN payloads as equal — exactly "the same run". Timestamps are held to
/// the same standard: an ulp of drift means the arithmetic changed.
template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_config(const gpusim::LaunchConfig& a, const gpusim::LaunchConfig& b) {
  return a.grid == b.grid && a.block == b.block &&
         a.regs_per_thread == b.regs_per_thread &&
         a.smem_static_bytes == b.smem_static_bytes &&
         a.smem_dynamic_bytes == b.smem_dynamic_bytes;
}

/// Tolerance equality that also accepts identically non-finite pairs
/// (a net whose loss blows up must blow up the same way in both runs).
bool close_enough(float a, float b, double rtol, double atol) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(static_cast<double>(a) - b) <=
         atol + rtol * std::abs(static_cast<double>(a));
}

/// Arm `faults` on `ctx` unless every rate is zero. Runs given the same
/// salt draw the same faults; distinct salts decorrelate cases (and the
/// devices of a fleet).
void arm_faults(scuda::Context& ctx, scuda::FaultConfig faults,
                std::uint64_t salt) {
  if (faults.launch_failure_rate <= 0.0 &&
      faults.stream_create_failure_rate <= 0.0 &&
      faults.capture_loss_rate <= 0.0) {
    return;
  }
  faults.seed ^= salt * 0x9e3779b97f4a7c15ULL;
  ctx.faults().arm(faults);
}

/// The engine contract pins the per-scope profiling/analysis charge: the
/// default charges *measured* wall time to the simulated host clock,
/// which would make the twins' timelines differ for reasons unrelated to
/// the engines.
glp4nn::SchedulerOptions scheduler_options(glp4nn::SchedulerOptions options,
                                           const DiffOptions& o) {
  if (o.contract == Contract::kEngine) options.overhead_charge_ms = 0.05;
  return options;
}

gpusim::LinkProps link_props(gpusim::LinkTopology topology) {
  return topology == gpusim::LinkTopology::kNvlinkRing
             ? gpusim::LinkProps::nvlink()
             : gpusim::LinkProps::pcie();
}

/// What one run produced.
struct Output {
  std::vector<float> losses;
  /// Parameters, one vector per device, or each request's output by id.
  std::vector<std::vector<float>> values;
  const char* unit = "device";  ///< what one entry of `values` belongs to
  /// Engine contract only: each device's timeline and, when serving, the
  /// request records in completion order.
  std::vector<gpusim::Timeline> timelines;
  std::vector<serving::RequestRecord> records;
};

std::vector<float> params_of(const mc::Net& net) {
  std::vector<float> out;
  for (const auto& p : net.learnable_params()) {
    out.insert(out.end(), p->data(), p->data() + p->count());
  }
  return out;
}

struct Tolerance {
  double rtol;
  double atol;
};

/// Compare `got` with `want` element by element: an element passes when
/// bit-identical or, given a tolerance, close enough under it.
void compare_floats(DiffResult& r, const std::vector<float>& want,
                    const std::vector<float>& got, const Tolerance* tol,
                    const std::string& what, const char* baseline) {
  if (want.size() != got.size()) {
    r.fail(what + " count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size()) + " from " + baseline);
    return;
  }
  r.values_compared += want.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double diff = std::abs(static_cast<double>(want[i]) - got[i]);
    if (diff == diff) r.max_diff = std::max(r.max_diff, diff);
    if (same_bits(want[i], got[i])) continue;
    r.bit_exact_observed = false;
    if (tol != nullptr && close_enough(want[i], got[i], tol->rtol, tol->atol)) {
      continue;
    }
    std::ostringstream os;
    os << what << " " << i << (tol ? " diverged from " : " differs from ")
       << baseline << ": " << got[i] << " vs " << want[i];
    r.fail(os.str());
  }
}

const char* record_field_diff(const serving::RequestRecord& a,
                              const serving::RequestRecord& b) {
  if (a.id != b.id) return "id";
  if (a.tenant != b.tenant) return "tenant";
  if (a.outcome != b.outcome) return "outcome";
  if (a.downgraded != b.downgraded) return "downgraded";
  if (!same_bits(a.arrival_ns, b.arrival_ns)) return "arrival_ns";
  if (!same_bits(a.issue_ns, b.issue_ns)) return "issue_ns";
  if (!same_bits(a.completion_ns, b.completion_ns)) return "completion_ns";
  if (a.batch_id != b.batch_id) return "batch_id";
  if (a.batch_size != b.batch_size) return "batch_size";
  return nullptr;
}

/// The contract's comparison of the subject's output `got` against the
/// counterpart's `want`.
void compare(DiffResult& r, const Output& want, const Output& got,
             const char* baseline) {
  static const Tolerance kLoss{kLossRtol, kLossAtol};
  static const Tolerance kParams{0.0, kParamTol};
  const bool exact = r.bit_exact_expected;
  compare_floats(r, want.losses, got.losses, exact ? nullptr : &kLoss,
                 "loss at iteration", baseline);
  GLP_CHECK(want.values.size() == got.values.size());
  for (std::size_t v = 0; v < got.values.size(); ++v) {
    compare_floats(r, want.values[v], got.values[v], exact ? nullptr : &kParams,
                   std::string(got.unit) + " " + std::to_string(v) + " value",
                   baseline);
  }
  GLP_CHECK(want.timelines.size() == got.timelines.size());
  for (std::size_t d = 0; d < got.timelines.size(); ++d) {
    const std::string diff =
        compare_timelines(got.timelines[d], want.timelines[d]);
    if (!diff.empty()) {
      r.fail("device " + std::to_string(d) + " timeline differs from " +
             baseline + ": " + diff);
    }
    r.kernels_compared += got.timelines[d].kernels().size();
    r.copies_compared += got.timelines[d].copies().size();
  }
  if (want.records.size() != got.records.size()) {
    r.fail("request record count " + std::to_string(got.records.size()) +
           " vs " + std::to_string(want.records.size()) + " from " + baseline);
    return;
  }
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    const char* field = record_field_diff(got.records[i], want.records[i]);
    if (field != nullptr) {
      r.fail("request record " + std::to_string(i) + " (id " +
             std::to_string(got.records[i].id) + ") differs in " + field +
             " from " + baseline);
      return;
    }
  }
}

void audit_races(DiffResult& r, const gpusim::Timeline& timeline,
                 const gpusim::DeviceProps& props) {
  r.races = check_timeline(timeline, props);
  if (r.races.clean()) return;
  std::ostringstream os;
  os << r.races.violations.size()
     << " timeline ordering violation(s); first: ["
     << kind_name(r.races.violations.front().kind) << "] "
     << r.races.violations.front().detail;
  r.fail(os.str());
}

/// How a single-device training run issues its kernels.
enum class Dispatch { kSerial, kChain, kDag };

/// Train the case once. `subject`, when set, receives the run's audits
/// and accounting.
Output train(const FuzzCase& c, const DiffOptions& o, Dispatch how,
             gpusim::EngineKind engine, DiffResult* subject) {
  const bool engine_contract = o.contract == Contract::kEngine;
  scuda::Context ctx(c.device, engine);
  if (how != Dispatch::kSerial) arm_faults(ctx, o.faults, c.seed);
  gpusim::Timeline& tl = ctx.device().timeline();
  tl.set_enabled(subject != nullptr || engine_contract);

  kern::SerialDispatcher serial(ctx);
  glp4nn::Glp4nnEngine glp(scheduler_options(c.options, o));
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = how == Dispatch::kSerial
                      ? static_cast<kern::KernelDispatcher*>(&serial)
                      : &glp.scheduler_for(ctx);
  ec.dag_schedule = how == Dispatch::kDag;
  mc::Net net(c.net, ec);
  mc::SgdSolver solver(net, {});
  Output out;
  solver.step(c.iters, [&](int, float loss) { out.losses.push_back(loss); });
  ctx.device().synchronize();
  out.values.push_back(params_of(net));
  if (engine_contract) out.timelines.push_back(tl);
  if (subject == nullptr) return out;

  DiffResult& r = *subject;
  r.losses = out.losses;
  r.timelines.push_back(tl);
  r.launch_faults = ctx.faults().launch_faults();
  r.stream_faults = ctx.faults().stream_create_faults();
  r.capture_drops = ctx.faults().capture_records_dropped();
  r.fallbacks = glp.scheduler_for(ctx).serial_fallback_count();
  if (how == Dispatch::kDag) {
    const std::vector<mc::NetDag::Op>& fops = net.dag()->forward_ops();
    for (std::size_t i = 0; i < fops.size(); ++i) {
      if (fops[i].absorbed) ++r.relu_epilogues;
      if (fops[i].fused_head == static_cast<int>(i)) ++r.fused_chains;
    }
  }
  if (!o.audit) return out;
  audit_races(r, tl, c.device);
  if (how != Dispatch::kDag) return out;
  // Replay one clean pass at a time on an emptied timeline: spans from
  // different training iterations would otherwise aggregate, and every
  // edge whose consumer ran in iteration 0 before the producer's last
  // iteration ended would look violated.
  tl.clear();
  net.forward();
  ctx.device().synchronize();
  r.forward_schedule = check_op_schedule(tl, net.dag()->forward_schedule());
  tl.clear();
  net.backward();
  ctx.device().synchronize();
  r.backward_schedule = check_op_schedule(tl, net.dag()->backward_schedule());
  if (!r.forward_schedule.clean()) {
    r.fail("forward op-schedule violated: " +
           r.forward_schedule.violations.front().detail);
  }
  if (!r.backward_schedule.clean()) {
    r.fail("backward op-schedule violated: " +
           r.backward_schedule.violations.front().detail);
  }
  return out;
}

void merge_transfer_report(FleetTransferReport& into,
                           const FleetTransferReport& from) {
  into.violations.insert(into.violations.end(), from.violations.begin(),
                         from.violations.end());
  into.transfers_checked += from.transfers_checked;
  into.peak_channel_rate =
      std::max(into.peak_channel_rate, from.peak_channel_rate);
  into.channels_used = std::max(into.channels_used, from.channels_used);
}

/// Train the case data-parallel on an `o.devices`-wide fleet (link
/// contention, eager bucketed overlap, non-blocking comm streams,
/// per-device GLP4NN schedulers), faults armed on every device.
Output train_fleet(const FuzzCase& c, const DiffOptions& o,
                   gpusim::EngineKind engine, DiffResult* subject) {
  GLP_REQUIRE(o.devices >= 1, "fleet differential needs at least one device");
  const bool engine_contract = o.contract == Contract::kEngine;
  scuda::FleetOptions fopts;
  fopts.topology = o.topology;
  fopts.link = link_props(o.topology);
  fopts.engine = engine;
  scuda::Fleet fleet = scuda::Fleet::homogeneous(o.devices, c.device, fopts);

  const glp4nn::SchedulerOptions options = scheduler_options(c.options, o);
  std::vector<std::unique_ptr<glp4nn::Glp4nnEngine>> engines;
  std::vector<mc::ExecContext> ecs(static_cast<std::size_t>(o.devices));
  std::vector<mc::ExecContext*> ec_ptrs;
  for (int d = 0; d < o.devices; ++d) {
    scuda::Context& ctx = fleet.device(d);
    arm_faults(ctx, o.faults, c.seed + static_cast<std::uint64_t>(d) + 1);
    ctx.device().timeline().set_enabled(subject != nullptr || engine_contract);
    engines.push_back(std::make_unique<glp4nn::Glp4nnEngine>(options));
    mc::ExecContext& ec = ecs[static_cast<std::size_t>(d)];
    ec.ctx = &ctx;
    ec.dispatcher = &engines.back()->scheduler_for(ctx);
    ec_ptrs.push_back(&ec);
  }

  comm::FleetTrainerOptions topts;
  topts.bucket_bytes = kBucketBytes;
  topts.overlap = o.overlap;
  topts.collective = o.collective;
  comm::FleetTrainer trainer(fleet, ec_ptrs, c.net, topts);
  const bool audit = subject != nullptr && o.audit;
  Output out;
  trainer.step(c.iters, [&](int, float loss) {
    out.losses.push_back(loss);
    if (audit) {
      merge_transfer_report(
          subject->transfers,
          check_fleet_transfers(trainer.collectives().transfers(),
                                fleet.links().props()));
    }
  });
  fleet.synchronize_all();

  for (int d = 0; d < o.devices; ++d) {
    out.values.push_back(params_of(trainer.net(d)));
    if (engine_contract) {
      out.timelines.push_back(fleet.device(d).device().timeline());
    }
  }
  if (subject == nullptr) return out;
  DiffResult& r = *subject;
  r.losses = out.losses;
  for (int d = 0; d < o.devices; ++d) {
    scuda::Context& ctx = fleet.device(d);
    r.timelines.push_back(ctx.device().timeline());
    r.launch_faults += ctx.faults().launch_faults();
    r.stream_faults += ctx.faults().stream_create_faults();
    r.capture_drops += ctx.faults().capture_records_dropped();
    r.fallbacks += engines[static_cast<std::size_t>(d)]
                       ->scheduler_for(ctx)
                       .serial_fallback_count();
    if (trainer.collectives().fallback(d)) ++r.fallbacks;
  }
  if (audit && !r.transfers.clean()) {
    r.fail("link-contract violation:\n" + r.transfers.to_string());
  }
  return out;
}

/// The sequential micro-batch oracle: one device runs each iteration's N
/// micro-batches in turn, captures each one's gradients, combines them
/// with the selected collective's exact wave program (same algorithm,
/// pipelining split and wire format as the fleet), scales by 1/N,
/// scatters back and applies ONE solver update. Fault-free by
/// construction; every device's expected parameters are its result.
Output fleet_oracle(const FuzzCase& c, const DiffOptions& o) {
  const int n = o.devices;
  scuda::Context ctx(c.device);
  glp4nn::Glp4nnEngine engine(c.options);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = &engine.scheduler_for(ctx);
  mc::Net net(c.net, ec);
  mc::SgdSolver solver(net, {});
  const comm::BucketPlan plan = comm::plan_buckets(net, kBucketBytes);
  const auto nn = static_cast<std::size_t>(n);
  const float inv_n = 1.0f / static_cast<float>(n);

  // Mirror the fleet's link properties so plan_collective resolves kAuto
  // (and the pipelining split) to the exact program the fleet runs. One
  // plan per bucket size: buckets share counts often, so memoize.
  const gpusim::LinkProps props = link_props(o.topology);
  std::map<std::size_t, comm::CollectiveProgram> programs;
  auto program_for = [&](std::size_t count) -> const comm::CollectiveProgram& {
    auto it = programs.find(count);
    if (it == programs.end()) {
      it = programs
               .emplace(count, comm::plan_collective(n, o.topology, props,
                                                     o.collective, count))
               .first;
    }
    return it->second;
  };

  // grads[b][r]: micro-batch r's packed gradient for bucket b.
  std::vector<std::vector<std::vector<float>>> grads(plan.buckets.size());
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    grads[b].assign(nn, std::vector<float>(plan.buckets[b].count, 0.0f));
  }

  Output out;
  for (int it = 0; it < c.iters; ++it) {
    const float lr = solver.current_lr();
    float loss = 0.0f;
    for (std::size_t r = 0; r < nn; ++r) {
      net.zero_param_diffs();
      net.forward();
      net.backward();
      loss += net.total_loss();  // synchronizes the device
      for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
        std::size_t off = 0;
        for (const std::size_t pi : plan.buckets[b].params) {
          const mc::Blob& p = *net.learnable_params()[pi];
          std::memcpy(grads[b][r].data() + off, p.diff(),
                      p.count() * sizeof(float));
          off += p.count();
        }
      }
    }
    loss *= inv_n;

    std::vector<float*> ptrs(nn);
    for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
      for (std::size_t r = 0; r < nn; ++r) ptrs[r] = grads[b][r].data();
      comm::reference_collective_allreduce(program_for(plan.buckets[b].count),
                                           ptrs, plan.buckets[b].count,
                                           o.collective.wire);
      std::size_t off = 0;
      for (const std::size_t pi : plan.buckets[b].params) {
        mc::Blob& p = *net.learnable_params()[pi];
        float* diff = p.mutable_diff();
        for (std::size_t k = 0; k < p.count(); ++k) {
          diff[k] = grads[b][0][off + k] * inv_n;
        }
        off += p.count();
      }
    }
    solver.apply_update(lr);
    ctx.device().synchronize();
    solver.note_step(loss);
    out.losses.push_back(loss);
  }
  ctx.device().synchronize();
  out.values.assign(nn, params_of(net));
  return out;
}

std::size_t sample_size_of(const mc::NetSpec& net) {
  GLP_REQUIRE(!net.layers.empty() && net.layers.front().type == "Input",
              "serving case net must start with an Input layer");
  const mc::LayerParams& p = net.layers.front().params;
  return static_cast<std::size_t>(p.dataset.channels) * p.dataset.height *
         p.dataset.width;
}

/// Replay the case's trace once: on the subject server (tenant-sliced
/// scheduler, batches of up to `max_batch`, optional lane coalescing,
/// faults armed) or, when `scheduled` is false, on the serial batch-1
/// baseline (serial dispatch, `max_batch = 1`: every request its own
/// forward on the default stream).
Output serve(const ServeCase& c, const DiffOptions& o, bool scheduled,
             gpusim::EngineKind engine, DiffResult* subject) {
  const bool engine_contract = o.contract == Contract::kEngine;
  std::vector<std::size_t> sizes;
  std::vector<serving::TenantModel> models;
  for (std::size_t t = 0; t < c.nets.size(); ++t) {
    sizes.push_back(sample_size_of(c.nets[t]));
    serving::TenantModel m;
    m.name = std::string("t").append(std::to_string(t));
    m.spec = c.nets[t];
    models.push_back(std::move(m));
  }
  const auto trace = serving::make_trace(c.trace, sizes);

  // An over-provisioned queue and no deadlines: every request is served,
  // so the comparison covers the full trace.
  serving::ServerOptions opts;
  opts.slots = c.slots;
  opts.queue_capacity = trace.size() + 1;
  opts.keep_outputs = true;
  opts.batch.max_batch = scheduled ? c.max_batch : 1;
  opts.use_scheduler = scheduled;
  opts.coalesce_lanes = scheduled && c.coalesce;
  opts.record_timeline = subject != nullptr || engine_contract;
  if (scheduled) opts.scheduler = scheduler_options(opts.scheduler, o);
  scuda::Context ctx(c.device, engine);
  if (scheduled) arm_faults(ctx, o.faults, c.seed);
  serving::InferenceServer server(ctx, models, opts);
  const std::vector<serving::RequestRecord> recs = server.replay(trace);
  ctx.device().synchronize();

  Output out;
  out.unit = "request";
  out.values.resize(trace.size());
  std::size_t served = 0;
  // Records come in completion order, so within a tenant the arrivals of
  // served requests must be non-decreasing.
  std::map<int, gpusim::SimTime> last_arrival;
  for (const serving::RequestRecord& rec : recs) {
    if (rec.outcome != serving::Outcome::kServed) continue;
    GLP_CHECK(rec.id < out.values.size());
    out.values[rec.id] = rec.output;
    ++served;
    gpusim::SimTime& last = last_arrival[rec.tenant];
    if (subject != nullptr && rec.arrival_ns < last) {
      subject->fail("tenant " + std::to_string(rec.tenant) +
                    " completions reordered: request " +
                    std::to_string(rec.id) + " overtook a later arrival");
    }
    last = std::max(last, rec.arrival_ns);
  }
  const gpusim::Timeline& tl = ctx.device().timeline();
  if (engine_contract) {
    out.records = recs;
    out.timelines.push_back(tl);
  }
  if (subject == nullptr) return out;
  DiffResult& r = *subject;
  r.timelines.push_back(tl);
  r.launch_faults = ctx.faults().launch_faults();
  r.stream_faults = ctx.faults().stream_create_faults();
  r.capture_drops = ctx.faults().capture_records_dropped();
  r.fallbacks = server.serial_fallback_count();
  if (served != trace.size()) {
    r.fail("only " + std::to_string(served) + "/" +
           std::to_string(trace.size()) +
           " requests served despite ample queue and no deadlines");
  }
  if (o.audit) audit_races(r, tl, c.device);
  return out;
}

}  // namespace

bool bit_exact_contract(const mc::NetSpec& net,
                        const glp4nn::SchedulerOptions& options) {
  const auto has_type = [&](const char* type) {
    return std::any_of(net.layers.begin(), net.layers.end(),
                       [&](const mc::LayerSpec& l) { return l.type == type; });
  };
  // Only conv/deconv fan per-sample work across streams; everything else
  // runs whole-batch kernels on the default stream in program order.
  if (!has_type("Convolution") && !has_type("Deconvolution")) return true;
  // batch ≤ 32: every sample owns a private gradient-accumulation slot,
  // so the summation order cannot depend on the stream layout.
  const auto data = std::find_if(
      net.layers.begin(), net.layers.end(),
      [](const mc::LayerSpec& l) { return l.type == "Data"; });
  if (data == net.layers.end() || data->params.batch_size <= 32) return true;
  // batch > 32: slots are shared between samples. Only strict-repro pools
  // (divisors of 32) with round-robin assignment keep each slot's
  // accumulation order identical to the serial baseline; block-cyclic
  // assignment interleaves slot owners across streams.
  return options.strict_repro &&
         options.policy == glp4nn::DispatchPolicy::kRoundRobin;
}

DiffResult run_differential(const FuzzCase& c, const DiffOptions& o) {
  DiffResult r;
  const bool engine_contract = o.contract == Contract::kEngine;
  r.bit_exact_expected = engine_contract || o.scenario == Scenario::kFleet ||
                         bit_exact_contract(c.net, c.options);
  if (o.scenario == Scenario::kFleet) {
    const Output sub = train_fleet(c, o, gpusim::EngineKind::kOptimized, &r);
    if (engine_contract) {
      compare(r, train_fleet(c, o, gpusim::EngineKind::kReference, nullptr),
              sub, "the reference engine");
    } else {
      compare(r, fleet_oracle(c, o), sub, "the micro-batch oracle");
    }
    return r;
  }
  const Dispatch how =
      o.scenario == Scenario::kDag ? Dispatch::kDag : Dispatch::kChain;
  const Output sub = train(c, o, how, gpusim::EngineKind::kOptimized, &r);
  if (engine_contract) {
    compare(r, train(c, o, how, gpusim::EngineKind::kReference, nullptr), sub,
            "the reference engine");
    return r;
  }
  compare(r, train(c, o, Dispatch::kSerial, gpusim::EngineKind::kOptimized,
                   nullptr),
          sub, "serial");
  if (how == Dispatch::kDag) {
    compare(r, train(c, o, Dispatch::kChain, gpusim::EngineKind::kOptimized,
                     nullptr),
            sub, "chain-only");
  }
  return r;
}

DiffResult run_differential(const ServeCase& c, const DiffOptions& o) {
  DiffResult r;
  const Output sub = serve(c, o, true, gpusim::EngineKind::kOptimized, &r);
  if (o.contract == Contract::kEngine) {
    compare(r, serve(c, o, true, gpusim::EngineKind::kReference, nullptr), sub,
            "the reference engine");
  } else {
    compare(r, serve(c, o, false, gpusim::EngineKind::kOptimized, nullptr),
            sub, "serial batch-1");
  }
  return r;
}

std::string compare_timelines(const gpusim::Timeline& a,
                              const gpusim::Timeline& b) {
  std::ostringstream os;
  if (a.kernels().size() != b.kernels().size()) {
    os << "kernel record count " << a.kernels().size() << " vs "
       << b.kernels().size();
    return os.str();
  }
  if (a.copies().size() != b.copies().size()) {
    os << "copy record count " << a.copies().size() << " vs "
       << b.copies().size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.kernels().size(); ++i) {
    const gpusim::KernelRecord& ka = a.kernels()[i];
    const gpusim::KernelRecord& kb = b.kernels()[i];
    const char* field = nullptr;
    if (ka.correlation_id != kb.correlation_id) field = "correlation";
    else if (ka.name != kb.name) field = "name";
    else if (ka.stream != kb.stream) field = "stream";
    else if (!same_config(ka.config, kb.config)) field = "config";
    else if (!same_bits(ka.submit_ns, kb.submit_ns)) field = "submit_ns";
    else if (!same_bits(ka.start_ns, kb.start_ns)) field = "start_ns";
    else if (!same_bits(ka.end_ns, kb.end_ns)) field = "end_ns";
    else if (ka.tenant != kb.tenant) field = "tenant";
    if (field != nullptr) {
      os << "kernel record " << i << " (" << ka.name << " vs " << kb.name
         << ") differs in " << field << " (e.g. end_ns " << ka.end_ns
         << " vs " << kb.end_ns << ")";
      return os.str();
    }
  }
  for (std::size_t i = 0; i < a.copies().size(); ++i) {
    const gpusim::CopyRecord& ca = a.copies()[i];
    const gpusim::CopyRecord& cb = b.copies()[i];
    const char* field = nullptr;
    if (ca.correlation_id != cb.correlation_id) field = "correlation";
    else if (ca.stream != cb.stream) field = "stream";
    else if (ca.bytes != cb.bytes) field = "bytes";
    else if (ca.host_to_device != cb.host_to_device) field = "direction";
    else if (ca.peer != cb.peer) field = "peer";
    else if (!same_bits(ca.start_ns, cb.start_ns)) field = "start_ns";
    else if (!same_bits(ca.end_ns, cb.end_ns)) field = "end_ns";
    else if (ca.tenant != cb.tenant) field = "tenant";
    if (field != nullptr) {
      os << "copy record " << i << " differs in " << field << " (start "
         << ca.start_ns << " vs " << cb.start_ns << ", end " << ca.end_ns
         << " vs " << cb.end_ns << ")";
      return os.str();
    }
  }
  return "";
}

}  // namespace glpfuzz
