#pragma once
// Shared harness for the figure/table reproduction benches: builds a
// network on a simulated device under a chosen dispatcher, runs training
// iterations, and attributes simulated GPU time to layers via the
// timeline (kernels are named "<layer>/<pass>/<kernel>").
//
// All times reported by these helpers are *simulated* device/host times
// (the substitution DESIGN.md documents); wall-clock costs (T_p, T_a)
// come from glp4nn::FrameworkCosts.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/glp4nn.hpp"
#include "minicaffe/models.hpp"
#include "minicaffe/solver.hpp"

namespace bench {

enum class Mode {
  kSerial,     ///< naive-Caffe baseline: default stream only
  kGlp4nn,     ///< the framework's RuntimeScheduler
};

struct RunConfig {
  gpusim::DeviceProps device = gpusim::DeviceTable::p100();
  Mode mode = Mode::kSerial;
  glp4nn::SchedulerOptions scheduler;  ///< used when mode == kGlp4nn
  int warmup_iterations = 1;           ///< includes GLP4NN's profiling pass
  int measured_iterations = 2;
  bool forward_only = false;
  kern::ComputeMode compute = kern::ComputeMode::kTimingOnly;
  bool register_penalty = true;   ///< simulator soft-constraint derating
  bool fuse_conv_bias = false;    ///< §6 future-work: fuse bias into GEMM
  /// Inter-operator DAG scheduling (NetDag): overlap independent branch
  /// ops on concurrent streams and fuse elementwise chains. Only
  /// meaningful under Mode::kGlp4nn.
  bool dag_schedule = false;
};

struct LayerTiming {
  double forward_ms = 0.0;   ///< mean simulated span of the fwd scope
  double backward_ms = 0.0;  ///< mean simulated span of the bwd scope
  double total_ms() const { return forward_ms + backward_ms; }
};

struct RunResult {
  double iteration_ms = 0.0;  ///< mean simulated time per iteration
  std::map<std::string, LayerTiming> layers;  ///< tracked layers only
  std::map<std::string, int> stream_counts;   ///< GLP4NN decisions (scope → S)
  glp4nn::FrameworkCosts costs;               ///< GLP4NN overheads (else zero)
  std::size_t device_bytes = 0;               ///< peak simulated device memory
};

/// Run `spec` under `config`, timing the layers named in `tracked`.
RunResult run_network(const mc::NetSpec& spec,
                      const std::vector<std::string>& tracked,
                      const RunConfig& config);

/// Set `config` to a manually fixed pool of `streams` streams (the
/// baseline of Figs. 2 and 4): the scheduler pinned with `fixed_streams`,
/// bypassing the analytical model. One stream runs serial dispatch
/// instead, because a one-stream scheduler pool still posts a
/// default-stream event per scope.
void use_fixed_pool(RunConfig& config, int streams);

/// The three evaluation GPUs of Table 3, in paper order.
std::vector<gpusim::DeviceProps> evaluation_gpus();

// --- tiny report helpers -----------------------------------------------------
void print_header(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);

/// Common provenance block every committed BENCH_*.json emitter stamps
/// right after its schema line: the simulated device generation, the
/// host's hardware thread count and the `git describe` of the source tree
/// the bench was configured from (or "unknown" when that tree is not a
/// git checkout), whatever directory it runs in. Returns one indented
/// line ending in
/// ",\n", ready to stream into the top-level JSON object:
///   "provenance": {"device": "P100", "host_threads": 16, "git": "..."},
std::string provenance_json(const std::string& device);

}  // namespace bench
