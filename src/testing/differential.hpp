#pragma once
// The differential core. Every contract of this reproduction is checked
// the same way: run two configurations of one sampled case, compare
// their outputs under a contract, and audit the subject's timeline.
//
// The *subject* is the configuration under test. The *contract* names
// what it must match:
//
//   reference  the subject against its scenario's baseline(s):
//                train  GLP4NN scheduler vs serial dispatch;
//                dag    DAG scheduling + fusion vs serial dispatch AND vs
//                       the chain-only scheduler;
//                serve  tenant-sliced, batched server vs a serial
//                       batch-1 server;
//                fleet  N-device data-parallel training vs the
//                       sequential micro-batch oracle: one device runs
//                       the N micro-batches in turn and reduces their
//                       gradients with the selected collective's host
//                       oracle (reference_collective_allreduce).
//   engine     the subject on the optimized engine vs the same subject
//              on ReferenceEngine: losses, parameters, request records
//              and every device's timeline, event for event.
//
// Outputs must be bit-identical, except train/dag cases under the
// reference contract outside bit_exact_contract, which are held to loss
// and parameter tolerances instead. Faults are armed on the subject and
// on every run that must draw the same faults (the chain-only baseline,
// the engine twin); the other baselines run fault-free. The audit checks
// the subject's timeline against the stream-ordering rules
// (check_timeline), replays one clean forward and backward pass against
// the op DAG under DAG scheduling (check_op_schedule), and checks every
// fleet transfer against the link contract (check_fleet_transfers). A
// serving subject must also serve every request, in arrival order
// within each tenant.

#include <cstdint>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "gpusim/interconnect.hpp"
#include "gpusim/timeline.hpp"
#include "simcuda/fault_injection.hpp"
#include "testing/net_generator.hpp"
#include "testing/race_checker.hpp"

namespace glpfuzz {

enum class Contract { kReference, kEngine };

/// What a FuzzCase is trained as. A ServeCase is always served.
enum class Scenario { kTrain, kDag, kFleet };

struct DiffOptions {
  Contract contract = Contract::kReference;
  Scenario scenario = Scenario::kTrain;
  /// Injected fault rates, armed on the subject and the runs that must
  /// draw the same faults. All-zero rates leave the injector disarmed.
  scuda::FaultConfig faults;
  /// Audit the subject (race checks, op-schedule replay, link contract).
  bool audit = true;

  // Fleet scenario.
  int devices = 2;
  gpusim::LinkTopology topology = gpusim::LinkTopology::kNvlinkRing;
  /// Eager bucketed overlap, or the serialize-then-reduce baseline.
  bool overlap = true;
  /// Algorithm, wire format and pipelining under test; the oracle
  /// replays whatever program these select.
  comm::CollectiveOptions collective;
};

struct DiffResult {
  bool ok = true;
  std::string failure;  ///< first failure, human-readable ("" when ok)

  bool bit_exact_expected = true;
  bool bit_exact_observed = true;
  double max_diff = 0.0;  ///< max |subject − baseline| over compared floats
  std::size_t values_compared = 0;  ///< losses, parameters and outputs
  std::vector<float> losses;        ///< the subject's, per iteration

  // Audits of the subject.
  RaceReport races;
  OpScheduleReport forward_schedule;   ///< dag: one clean forward pass
  OpScheduleReport backward_schedule;  ///< dag: one clean backward pass
  FleetTransferReport transfers;       ///< fleet: every iteration
  /// The subject's recorded timeline, one per device.
  std::vector<gpusim::Timeline> timelines;

  // Engine contract: records compared, summed over devices.
  std::size_t kernels_compared = 0;
  std::size_t copies_compared = 0;

  // Subject accounting, summed over devices.
  std::size_t launch_faults = 0;
  std::size_t stream_faults = 0;
  std::size_t capture_drops = 0;
  /// Scopes degraded to serial, plus comm lanes left on the default stream.
  std::size_t fallbacks = 0;
  std::size_t relu_epilogues = 0;  ///< dag: ReLUs absorbed into GEMMs
  std::size_t fused_chains = 0;    ///< dag: coalesced elementwise chains

  /// Record a failure; the first one wins.
  void fail(const std::string& why) {
    if (ok) {
      ok = false;
      failure = why;
    }
  }
};

/// Does the bit-exact branch of the contract apply to this combination?
/// True when no scope-parallel layer shares gradient slots between
/// samples (batch ≤ 32), or when strict_repro + round-robin pin the slot
/// accumulation order regardless of pool size.
bool bit_exact_contract(const mc::NetSpec& net,
                        const glp4nn::SchedulerOptions& options);

/// Run the case's subject and its counterpart under `opts.contract` and
/// compare. Never throws for a *failing* comparison (inspect ok/failure);
/// propagates unexpected errors (bad net, simulator invariant breakage)
/// as exceptions.
DiffResult run_differential(const FuzzCase& c, const DiffOptions& opts = {});
DiffResult run_differential(const ServeCase& c, const DiffOptions& opts = {});

/// Field-for-field, bit-for-bit comparison of two recorded timelines
/// (kernel and copy records, including every timestamp's exact double
/// bits and each copy's peer device). Returns "" when identical, else a
/// description of the first difference.
std::string compare_timelines(const gpusim::Timeline& a,
                              const gpusim::Timeline& b);

}  // namespace glpfuzz
