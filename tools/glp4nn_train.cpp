// glp4nn_train — command-line trainer in the spirit of the `caffe` binary.
//
//   glp4nn_train --model cifar10 --device P100 --iters 20
//   glp4nn_train --net my_net.prototxt --mode serial --timing-only
//   glp4nn_train --model lenet --mode fixed:8 --snapshot weights.glpw
//
// Flags:
//   --net <file>        network definition in the text format
//   --model <name>      built-in model: lenet | cifar10 | siamese |
//                       caffenet | googlenet
//   --device <name>     K40C | P100 | TitanXP | Fermi | Maxwell | Volta
//   --mode <m>          glp4nn (default) | serial | fixed:<N> | strict
//                       (fixed:N pins the scheduler's pool at N >= 1
//                       streams, clamped to the device's concurrency
//                       degree, instead of asking the analytical model)
//   --iters <n>         training iterations (default 10)
//   --lr <f>            base learning rate (default 0.01)
//   --momentum <f>      SGD momentum (default 0.9)
//   --solver <s>        sgd | nesterov | adagrad
//   --timing-only       skip numerics; simulate kernel timing only
//   --snapshot <file>   write weights + solver state after training
//   --restore <file>    load weights + solver state before training
//   --display <n>       print loss every n iterations (default 1)
//   --trace <file>      write a Chrome trace of the final iteration
//   --summary           print the layer table before training
//   --profile           print an nvprof-style kernel summary at the end
//
// Fleet (data-parallel) training:
//   --fleet-devices <n> train on an n-device fleet with the bucketed
//                       collective all-reduce (default 1 = single device)
//   --device-gen <g>    per-device generation, repeatable or
//                       comma-separated, cycled to the fleet width
//                       (default: --device everywhere)
//   --links <kind>      fleet interconnect: nvlink | pcie
//   --no-overlap        serialize-then-reduce instead of eager overlap
//   --collective <c>    all-reduce algorithm: auto (cost model, default) |
//                       ring | tree | hier
//   --fp16-wire         compress gradients to fp16 on the wire (fp32
//                       accumulation; loss-trajectory tolerance contract)
//
// --trace works in fleet mode too: it writes a merged Chrome trace of the
// final iteration with one process row per device, cross-device
// memcpy_peer spans included.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/data_parallel.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "core/glp4nn.hpp"
#include "gpusim/profile_report.hpp"
#include "gpusim/trace_export.hpp"
#include "minicaffe/models.hpp"
#include "minicaffe/net_parser.hpp"
#include "minicaffe/solver.hpp"
#include "simcuda/fleet.hpp"

namespace {

[[noreturn]] void fail(const glp::Flags& flags, const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
               flags.usage().c_str());
  std::exit(2);
}

mc::NetSpec builtin_model(const std::string& name) {
  if (name == "lenet") return mc::models::lenet();
  if (name == "cifar10") return mc::models::cifar10_quick();
  if (name == "siamese") return mc::models::siamese_mnist();
  if (name == "caffenet") return mc::models::caffenet();
  if (name == "googlenet") return mc::models::googlenet_tail();
  throw glp::InvalidArgument("unknown built-in model '" + name + "'");
}

/// The dispatcher `--mode` selects for one device: the serial baseline,
/// or a RuntimeScheduler that either asks the analyzer (glp4nn, strict)
/// or pins its pool at a fixed size (fixed:N).
struct ModeDispatch {
  std::unique_ptr<kern::SerialDispatcher> serial;
  std::unique_ptr<glp4nn::Glp4nnEngine> engine;
  kern::KernelDispatcher* dispatcher = nullptr;
};

ModeDispatch make_dispatch(const glp::Flags& flags, const std::string& mode,
                           scuda::Context& ctx) {
  ModeDispatch d;
  if (mode == "serial") {
    d.serial = std::make_unique<kern::SerialDispatcher>(ctx);
    d.dispatcher = d.serial.get();
    return d;
  }
  glp4nn::SchedulerOptions opts;
  if (glp::starts_with(mode, "fixed:")) {
    const std::string n = mode.substr(6);
    std::size_t end = 0;
    try {
      opts.fixed_streams = std::stoi(n, &end);
    } catch (const std::exception&) {
      // Not a number: fixed_streams stays 0 and is rejected below.
    }
    // fixed_streams = 0 would silently mean "ask the analyzer".
    if (end != n.size() || opts.fixed_streams < 1) {
      fail(flags, "--mode fixed:N needs an integer N >= 1, got '" + n + "'");
    }
  } else if (mode == "strict") {
    opts.strict_repro = true;
  } else if (mode != "glp4nn") {
    fail(flags, "unknown mode '" + mode + "'");
  }
  d.engine = std::make_unique<glp4nn::Glp4nnEngine>(opts);
  d.dispatcher = &d.engine->scheduler_for(ctx);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  std::string net_file, model = "lenet", device = "P100", mode = "glp4nn";
  std::string snapshot_path, restore_path, solver_name = "sgd", trace_path;
  int iters = 10, display = 1;
  float lr = 0.01f, momentum = 0.9f;
  bool timing_only = false, want_summary = false, want_profile = false;
  int fleet_devices = 1;
  std::vector<std::string> device_gens;
  std::string links = "nvlink";
  bool no_overlap = false;
  std::string collective = "auto";
  bool fp16_wire = false;

  glp::Flags flags("glp4nn_train",
                   "Train a network on the simulated GPU (the `caffe` "
                   "binary of this repo).");
  flags.opt("net", &net_file, "network definition file (text format)")
      .opt("model", &model,
           "built-in model: lenet|cifar10|siamese|caffenet|googlenet")
      .opt("device", &device, "K40C|P100|TitanXP|Fermi|Maxwell|Volta")
      .opt("mode", &mode,
           "glp4nn|serial|fixed:N|strict (fixed:N, N >= 1, is clamped to "
           "the device's concurrency degree)")
      .opt("iters", &iters, "training iterations")
      .opt("lr", &lr, "base learning rate")
      .opt("momentum", &momentum, "SGD momentum")
      .opt("solver", &solver_name, "sgd|nesterov|adagrad")
      .flag("timing-only", &timing_only,
            "skip numerics; simulate kernel timing only")
      .opt("snapshot", &snapshot_path, "write weights + solver state after")
      .opt("restore", &restore_path, "load weights + solver state before")
      .opt("display", &display, "print loss every N iterations")
      .opt("trace", &trace_path, "write Chrome trace of the final iteration")
      .flag("summary", &want_summary, "print the layer table before training")
      .flag("profile", &want_profile, "print a kernel summary at the end")
      .opt("fleet-devices", &fleet_devices,
           "data-parallel fleet width (1 = single device)")
      .opt_list("device-gen", &device_gens,
                "per-device generation, repeatable/comma-separated, cycled "
                "to the fleet width (default: --device everywhere)")
      .opt("links", &links, "fleet interconnect: nvlink or pcie")
      .flag("no-overlap", &no_overlap,
            "fleet: serialize-then-reduce instead of eager bucketed overlap")
      .opt("collective", &collective,
           "fleet all-reduce algorithm: auto|ring|tree|hier")
      .flag("fp16-wire", &fp16_wire,
            "fleet: compress gradients to fp16 on the wire");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }

  try {
    const auto props = gpusim::DeviceTable::by_name(device);
    if (!props) fail(flags, "unknown device '" + device + "'");

    const mc::NetSpec spec =
        net_file.empty() ? builtin_model(model) : mc::parse_net_file(net_file);

    mc::SolverParams sp;
    sp.base_lr = lr;
    sp.momentum = momentum;
    if (solver_name == "nesterov") {
      sp.type = mc::SolverType::kNesterov;
    } else if (solver_name == "adagrad") {
      sp.type = mc::SolverType::kAdaGrad;
    } else if (solver_name != "sgd") {
      fail(flags, "unknown solver '" + solver_name + "'");
    }

    const auto report_iteration = [&](int iter, float loss) {
      if (display > 0 && iter % display == 0) {
        if (timing_only) {
          std::printf("iter %4d\n", iter);
        } else {
          // %.9g round-trips every float, so two runs compare bit for bit.
          std::printf("iter %4d  loss %.9g\n", iter, loss);
        }
      }
    };

    if (fleet_devices < 1) fail(flags, "--fleet-devices must be >= 1");
    if (fleet_devices > 1) {
      // --- data-parallel fleet training ---------------------------------
      if (!snapshot_path.empty() || !restore_path.empty() || want_profile) {
        fail(flags, "--snapshot/--restore/--profile are single-device only");
      }
      scuda::FleetOptions fopts;
      if (links == "nvlink") {
        fopts.topology = gpusim::LinkTopology::kNvlinkRing;
        fopts.link = gpusim::LinkProps::nvlink();
      } else if (links == "pcie") {
        fopts.topology = gpusim::LinkTopology::kPcieHost;
        fopts.link = gpusim::LinkProps::pcie();
      } else {
        fail(flags, "--links must be nvlink or pcie");
      }
      std::vector<gpusim::DeviceProps> fleet_props;
      for (int d = 0; d < fleet_devices; ++d) {
        const std::string& name =
            device_gens.empty()
                ? device
                : device_gens[static_cast<std::size_t>(d) % device_gens.size()];
        const auto p = gpusim::DeviceTable::by_name(name);
        if (!p) fail(flags, "unknown device '" + name + "'");
        fleet_props.push_back(*p);
      }
      scuda::Fleet fleet(fleet_props, fopts);

      std::vector<ModeDispatch> dispatchers;
      std::vector<std::unique_ptr<mc::ExecContext>> ecs;
      std::vector<mc::ExecContext*> ec_ptrs;
      for (int d = 0; d < fleet_devices; ++d) {
        scuda::Context& ctx = fleet.device(d);
        auto ec = std::make_unique<mc::ExecContext>();
        ec->ctx = &ctx;
        ec->mode = timing_only ? kern::ComputeMode::kTimingOnly
                               : kern::ComputeMode::kNumeric;
        dispatchers.push_back(make_dispatch(flags, mode, ctx));
        ec->dispatcher = dispatchers.back().dispatcher;
        ec_ptrs.push_back(ec.get());
        ecs.push_back(std::move(ec));
      }

      comm::FleetTrainerOptions topts;
      topts.solver = sp;
      topts.overlap = !no_overlap;
      const auto choice = comm::parse_collective(collective);
      if (!choice) fail(flags, "--collective must be auto|ring|tree|hier");
      topts.collective.collective = *choice;
      topts.collective.wire = fp16_wire ? comm::WireFormat::kFp16
                                        : comm::WireFormat::kFp32;
      comm::FleetTrainer trainer(fleet, ec_ptrs, spec, topts);
      std::size_t largest = 0;
      for (const auto& b : trainer.plan().buckets) {
        largest = std::max(largest, b.count);
      }
      std::printf(
          "net '%s': %zu layers on a %d-device %s fleet (%s links, %s, "
          "%zu bucket(s), %s all-reduce%s)%s\n",
          spec.name.c_str(), spec.layers.size(), fleet_devices,
          fleet_props.front().name.c_str(), links.c_str(),
          no_overlap ? "serialize-then-reduce" : "eager overlap",
          trainer.plan().buckets.size(),
          comm::to_string(trainer.collectives().algo_for(largest)),
          fp16_wire ? ", fp16 wire" : "", timing_only ? " (timing only)" : "");
      if (want_summary) std::printf("%s", trainer.net(0).summary().c_str());

      const double t0 = fleet.max_device_now();
      if (trace_path.empty()) {
        trainer.step(iters, report_iteration);
      } else {
        // Train normally, recording every device's final iteration and
        // merging them into one per-device-process Chrome trace.
        if (iters > 1) trainer.step(iters - 1, report_iteration);
        for (int d = 0; d < fleet_devices; ++d) {
          fleet.device(d).device().timeline().set_enabled(true);
        }
        trainer.step(1, report_iteration);
        fleet.synchronize_all();
        std::vector<const gpusim::Timeline*> timelines;
        std::vector<std::string> names;
        for (int d = 0; d < fleet_devices; ++d) {
          timelines.push_back(&fleet.device(d).device().timeline());
          names.push_back("device " + std::to_string(d) + " (" +
                          fleet_props[static_cast<std::size_t>(d)].name + ")");
          fleet.device(d).device().timeline().set_enabled(false);
        }
        gpusim::write_chrome_trace_fleet(timelines, trace_path, names);
        std::printf("fleet trace written to '%s'\n", trace_path.c_str());
      }
      fleet.synchronize_all();
      const double ms = (fleet.max_device_now() - t0) / 1e6;
      std::printf(
          "trained %d iterations on %d devices in %.2f simulated ms "
          "(%.2f ms/iter, %zu cross-device transfer(s))\n",
          iters, fleet_devices, ms, ms / std::max(iters, 1),
          trainer.collectives().transfers().size());
      return 0;
    }

    scuda::Context gpu(*props);
    const ModeDispatch dispatch = make_dispatch(flags, mode, gpu);
    glp4nn::Glp4nnEngine* engine = dispatch.engine.get();
    mc::ExecContext ec;
    ec.ctx = &gpu;
    ec.mode = timing_only ? kern::ComputeMode::kTimingOnly
                          : kern::ComputeMode::kNumeric;
    ec.dispatcher = dispatch.dispatcher;

    mc::Net net(spec, ec);
    std::printf("net '%s': %zu layers on %s, mode %s%s\n", spec.name.c_str(),
                spec.layers.size(), props->name.c_str(), mode.c_str(),
                timing_only ? " (timing only)" : "");
    if (want_summary) std::printf("%s", net.summary().c_str());
    if (want_profile) gpu.device().timeline().set_enabled(true);

    mc::SgdSolver solver(net, sp);
    if (!restore_path.empty()) {
      solver.restore(restore_path);
      std::printf("restored snapshot '%s' (iteration %d)\n",
                  restore_path.c_str(), solver.iter());
    }

    const double t0 = gpu.device().host_now();
    if (trace_path.empty()) {
      solver.step(iters, report_iteration);
    } else {
      // Train normally, recording a Chrome trace of the final iteration.
      if (iters > 1) solver.step(iters - 1, report_iteration);
      gpu.device().timeline().set_enabled(true);
      solver.step(1, report_iteration);
      gpusim::write_chrome_trace(gpu.device().timeline(), trace_path);
      gpu.device().timeline().set_enabled(false);
      std::printf("trace written to '%s'\n", trace_path.c_str());
    }
    const double ms = (gpu.device().host_now() - t0) / 1e6;
    std::printf("trained %d iterations in %.2f simulated ms (%.2f ms/iter)\n",
                iters, ms, ms / std::max(iters, 1));

    if (engine != nullptr && engine->options().fixed_streams == 0) {
      const auto costs = engine->costs();
      std::printf("GLP4NN overhead: T_p %.3f ms, T_a %.3f ms; streams:\n",
                  costs.profiling_ms, costs.analysis_ms);
      for (const auto& [scope, d] : engine->analyzer_for(gpu)->decisions()) {
        std::printf("  %-20s -> %d\n", scope.c_str(),
                    engine->scheduler_for(gpu).stream_count(scope));
      }
    }

    if (want_profile) {
      std::printf("\nkernel profile (simulated):\n%s",
                  gpusim::profile_report(gpu.device().timeline(), 15).c_str());
    }

    if (!snapshot_path.empty()) {
      solver.snapshot(snapshot_path);
      std::printf("snapshot written to '%s'\n", snapshot_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
