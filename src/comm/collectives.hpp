#pragma once
// Topology-aware collective engine for the simulated fleet.
//
// PR 9's single hard-wired ring becomes a family of all-reduce
// algorithms expressed as *wave programs* — deterministic lists of
// point-to-point transfers with explicit data dependencies — executed by
// one scheduled executor over the fleet's LinkModel and replayed by one
// host oracle:
//
//   ring  — classic two-phase ring: N-1 reduce-scatter waves + N-1
//           all-gather waves. Bandwidth-optimal; 2(N-1) latency terms.
//   tree  — recursive halving/doubling (Rabenseifner): 2*ceil(log2 N)
//           waves (+2 fold waves when N is not a power of two). Same
//           total bytes on a shared channel, exponentially fewer
//           latency terms — wins on the PCIe-class shared channel.
//   hier  — two-level: intra-group ring reduce-scatter, inter-group
//           tree all-reduce per chunk, intra-group ring all-gather.
//           Groups of size g = smallest prime factor of N; 2(g-1) +
//           tree(N/g) waves. The wave-count winner at N >= 8 on PCIe.
//
// tree and hier address non-neighbour device pairs, so they are only
// feasible on kPcieHost (the NVLink ring has no such channels); auto
// selection always picks ring on kNvlinkRing.
//
// Large buckets are chunk-pipelined: the bucket splits into `pieces`
// independent sub-programs over disjoint element ranges, all handed to
// the LinkModel in ONE dependency-aware batch (begin_after), so piece
// j+1's wave-k transfers overlap piece j's wave-k+1 latency gaps under
// exact processor sharing instead of queueing behind a whole-bucket
// wave barrier. Receives land on a small pool of per-device
// communication "lanes" (non-blocking streams) so the destination
// stream FIFO does not re-serialize what the link overlapped.
//
// Numerics are deterministic by construction: a program fixes every
// accumulation's operand order, the executor's receive functors apply
// them at simulated completion time, and reference_collective_allreduce
// replays the identical float operations on the host — the fleet
// differential's bit-exactness contract holds per algorithm. The
// fp16-on-the-wire mode (WireFormat::kFp16) quantizes each payload to
// binary16 at snapshot time and accumulates in fp32; fully-reduced
// chunks are quantized in place before their first all-gather send so
// every replica still ends bit-identical (and bit-identical to the fp16
// oracle). fp16 trades the fleet-vs-single-device equivalence for a
// loss-trajectory tolerance contract (tests/collective_test.cpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/allreduce.hpp"
#include "gpusim/interconnect.hpp"
#include "simcuda/fleet.hpp"

namespace comm {

enum class CollectiveAlgo { kRing, kTree, kHier };

/// CLI-facing selection: a fixed algorithm or cost-model auto.
enum class CollectiveChoice { kAuto, kRing, kTree, kHier };

enum class WireFormat { kFp32, kFp16 };

const char* to_string(CollectiveAlgo algo);
const char* to_string(CollectiveChoice choice);
const char* to_string(WireFormat wire);
/// Parses "auto|ring|tree|hier"; nullopt on anything else.
std::optional<CollectiveChoice> parse_collective(const std::string& s);

struct CollectiveOptions {
  CollectiveChoice collective = CollectiveChoice::kAuto;
  WireFormat wire = WireFormat::kFp32;
  /// Buckets larger than this split into independently-scheduled pieces
  /// (chunk pipelining). 0 disables splitting.
  std::size_t pipeline_chunk_bytes = 256 << 10;
  /// Non-blocking communication streams per device. Receives of
  /// different pipeline pieces round-robin across lanes so overlapped
  /// link spans are not re-serialized by one stream's FIFO.
  int lanes = 2;
};

/// One scheduled point-to-point transfer of a collective program.
struct CollectiveTransfer {
  int src = 0;
  int dst = 0;
  std::size_t lo = 0, hi = 0;  ///< element range [lo, hi), never empty
  bool accumulate = true;      ///< dst[k] += payload[k] vs overwrite
  int wave = 0;                ///< wave index within the piece
  int piece = 0;               ///< pipeline piece (lane assignment)
  /// Producing transfers, as indices into Program::transfers: src_deps
  /// wrote the source range the payload snapshots; dst_deps wrote the
  /// destination range this transfer's functor reads/overwrites. A range
  /// can have several producers — a tree all-gather send covers the
  /// union of the member's own reduced chunk and the ranges earlier
  /// doubling rounds delivered — and the executor must wait for every
  /// one before snapshotting, so each list covers its full range (the
  /// scan stops once the newest producers jointly cover it; anything
  /// older is ordered behind those producers' own dependency chains).
  std::vector<std::int32_t> src_deps;
  std::vector<std::int32_t> dst_deps;
};

/// A deterministic collective schedule: executor and oracle both consume
/// this. Transfers are piece-major, wave-major; ranges within one wave
/// of one piece never overlap between a reader and a writer.
struct CollectiveProgram {
  CollectiveAlgo algo = CollectiveAlgo::kRing;
  int devices = 1;
  std::size_t count = 0;
  int pieces = 1;
  std::vector<CollectiveTransfer> transfers;
  /// Wave count of one piece (latency terms on the critical path).
  int waves = 0;
};

/// Latency/bandwidth cost model calibrated against the LinkModel: a
/// program's predicted makespan is the wave-synchronous sum of
/// (latency + wave_bytes / bandwidth) per wave — on the shared PCIe
/// channel every wave's transfers serialize onto one channel; on the
/// NVLink ring a wave's per-channel maximum rules. Selection compares
/// un-pipelined programs (pipelining rescales all algorithms alike).
struct CollectiveCostModel {
  int devices = 1;
  gpusim::LinkTopology topology = gpusim::LinkTopology::kPcieHost;
  gpusim::LinkProps props;

  /// tree/hier need non-neighbour channels: kPcieHost only. hier
  /// additionally needs a non-trivial group split (composite N >= 4).
  static bool feasible(CollectiveAlgo algo, int devices,
                       gpusim::LinkTopology topology);
  /// Smallest prime factor of n (the hierarchical group size), or 0
  /// when n < 4 or prime (no useful two-level split).
  static int hier_group(int n);

  double predict_ns(CollectiveAlgo algo, std::size_t count,
                    WireFormat wire) const;
  /// Cheapest feasible algorithm; ties break ring < tree < hier.
  CollectiveAlgo choose(std::size_t count, WireFormat wire) const;
};

/// Bytes one element occupies on the wire.
inline std::size_t wire_bytes(WireFormat wire) {
  return wire == WireFormat::kFp16 ? 2 : 4;
}

/// Builds the wave program for `algo` over `devices` ranks reducing
/// `count` elements of range [base, base+count). Never emits empty
/// ranges; count == 0 or devices == 1 yields an empty program.
CollectiveProgram build_collective_program(CollectiveAlgo algo, int devices,
                                           std::size_t count);

/// Full planning pipeline: resolve CollectiveChoice via the cost model
/// (infeasible explicit choices degrade to the best feasible algorithm),
/// then split into pipeline pieces of at most pipeline_chunk_bytes wire
/// bytes each. This is the single source of truth both the scheduled
/// executor and the reference oracle use, which is what makes the
/// per-algorithm bit-exactness contract checkable.
CollectiveProgram plan_collective(int devices, gpusim::LinkTopology topology,
                                  const gpusim::LinkProps& props,
                                  const CollectiveOptions& options,
                                  std::size_t count);

/// Host oracle: replays the program's float operations — snapshot
/// (with fp16 wire quantization when enabled), then accumulate or
/// overwrite — in program order on N gradient arrays of `count` floats.
/// Leaves every array holding the (unscaled) reduced values,
/// bit-identical to what CollectiveEngine::reduce produces.
void reference_collective_allreduce(const CollectiveProgram& program,
                                    const std::vector<float*>& grads,
                                    std::size_t count, WireFormat wire);

/// Scheduled executor: runs any collective program over the fleet.
class CollectiveEngine {
 public:
  /// Creates `options.lanes` non-blocking communication streams per
  /// device. A fault-injected stream creation falls back to the
  /// device's default stream for that lane — numerics unaffected,
  /// overlap merely lost (every algorithm tolerates the fallback).
  CollectiveEngine(scuda::Fleet& fleet, CollectiveOptions options);

  const CollectiveOptions& options() const { return options_; }
  const CollectiveCostModel& cost_model() const { return cost_model_; }

  /// The program reduce() will run for a `count`-element bucket
  /// (memoized — bucket sizes repeat every iteration).
  const CollectiveProgram& program_for(std::size_t count);
  CollectiveAlgo algo_for(std::size_t count);

  /// Discard staging buffers from the previous iteration. Call only
  /// after every device has synchronized past the iteration's receives
  /// (their work functors borrow the staging memory).
  void reset();

  /// Reduce one bucket: `flat[d]` is device d's packed gradient of
  /// `count` floats, valid once `ready_ns[d]`. Registers the whole
  /// program as one dependency-aware LinkModel batch, submits every
  /// receive as a memcpy_peer on the destination's lanes, and returns
  /// per-device events completing when the device holds the reduced
  /// bucket. When `numeric` is false only timing is modelled.
  std::vector<gpusim::EventId> reduce(
      const std::vector<float*>& flat, std::size_t count,
      const std::vector<gpusim::SimTime>& ready_ns, bool numeric);

  gpusim::StreamId lane_stream(int d, int lane) const {
    return lanes_[static_cast<std::size_t>(d * lane_count_ + lane)].id();
  }
  int lane_count() const { return lane_count_; }
  /// True when any of device d's lanes fell back to the default stream.
  bool fallback(int d) const;

  /// Every finalized TransferRecord since the last reset(), in
  /// completion order — the fleet race-checker's input.
  const std::vector<gpusim::TransferRecord>& transfers() const {
    return transfers_;
  }

 private:
  float* stage_f32(std::size_t count);
  std::uint16_t* stage_f16(std::size_t count);

  scuda::Fleet* fleet_;
  CollectiveOptions options_;
  CollectiveCostModel cost_model_;
  int lane_count_ = 1;
  std::vector<scuda::Stream> lanes_;  ///< device-major [d * lanes + l]
  /// Cross-bucket FIFO floor per link channel: a later bucket's batch
  /// must not overlap an earlier bucket's tail on the same channel.
  std::vector<gpusim::SimTime> channel_free_;
  std::vector<gpusim::TransferRecord> transfers_;
  std::vector<std::unique_ptr<float[]>> staging_f32_;
  std::vector<std::unique_ptr<std::uint16_t[]>> staging_f16_;
  /// count -> planned program memo.
  std::vector<std::pair<std::size_t, CollectiveProgram>> programs_;
};

}  // namespace comm
