#pragma once
// Timeline race checker: replays a recorded gpusim timeline against the
// simulator's ordering contract and reports every violation. The checked
// invariants are exactly the guarantees the engine documents:
//
//   1. correlation ids are unique (one record per submitted op);
//   2. timestamps are monotonic per op (submit ≤ start ≤ end);
//   3. same-stream FIFO — an op is admitted only after its stream
//      predecessor *completed*, so start ≥ previous op's end;
//   4. the legacy default stream is a two-sided barrier: a default-stream
//      op starts only after every earlier-submitted op (any stream) has
//      finished, and no later-submitted op starts before the last
//      default-stream op finished;
//   5. at most `max_concurrent_kernels` kernels are resident at any
//      instant (copies ride the copy engines and are exempt).
//
// Since per-sample task-lane work is serialised onto one stream by the
// scheduler, invariant 3 subsumes "every kernel starts after its
// same-sample predecessors".
//
// DAG-scheduled runs additionally tag kernels with their layer-op prefix
// ("conv1/fwd/..."). check_op_schedule() replays a timeline against an
// explicit op DAG: every kernel of a consumer op must start at or after
// every kernel of each producer op ended. Concurrent sibling branches
// overlap legitimately — overlap across ops is *concurrency*, reported
// as peak_op_concurrency, not flagged as a race; only an edge violation
// (consumer kernel starting before a producer kernel ended) is an error.

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_props.hpp"
#include "gpusim/interconnect.hpp"
#include "gpusim/timeline.hpp"
#include "gpusim/trace_export.hpp"
#include "minicaffe/net_dag.hpp"

namespace glpfuzz {

struct RaceViolation {
  enum class Kind {
    kDuplicateCorrelation,  ///< two records share a correlation id
    kNonMonotonic,          ///< end < start or start < submit
    kStreamFifo,            ///< started before same-stream predecessor ended
    kDefaultBarrierBefore,  ///< stream-0 op started before earlier work ended
    kDefaultBarrierAfter,   ///< op started before preceding stream-0 op ended
    kConcurrencyCap,        ///< resident kernels exceeded the device limit
    kDagOrderViolation,     ///< consumer-op kernel started before a producer
                            ///< op's kernel ended
    kLinkOversubscribed,    ///< concurrent transfers on one channel summed
                            ///< past its physical bandwidth
    kTransferAccounting,    ///< a transfer's rate profile is inconsistent
                            ///< (gaps, bad bounds, or ∫rate dt ≠ bytes)
  };

  Kind kind;
  std::uint64_t correlation_id = 0;
  gpusim::StreamId stream = gpusim::kDefaultStream;
  gpusim::SimTime ts_ns = 0.0;  ///< where in the trace it happened
  std::string detail;           ///< human-readable explanation
};

const char* kind_name(RaceViolation::Kind kind);

struct RaceReport {
  std::vector<RaceViolation> violations;
  std::size_t ops_checked = 0;
  int peak_concurrency = 0;  ///< max simultaneously-resident kernels

  bool clean() const { return violations.empty(); }
  /// Multi-line dump of every violation (empty string when clean).
  std::string to_string() const;
};

/// Check a recorded timeline against the ordering contract of `props`'
/// device. The timeline must have been recorded with tracing enabled for
/// the whole run; an empty timeline trivially passes.
RaceReport check_timeline(const gpusim::Timeline& timeline,
                          const gpusim::DeviceProps& props);

/// One Chrome-trace instant marker per violation, for visual triage.
std::vector<gpusim::TraceMarker> violation_markers(const RaceReport& report);

struct OpScheduleReport {
  std::vector<RaceViolation> violations;
  std::size_t ops_matched = 0;  ///< ops with at least one kernel on the trace
  std::size_t edges_checked = 0;
  /// Max DAG ops simultaneously resident (both spans overlapping) — the
  /// legitimate branch concurrency the DAG scheduler achieved.
  int peak_op_concurrency = 0;

  bool clean() const { return violations.empty(); }
  std::string to_string() const;
};

/// Check a DAG-scheduled run against its op DAG (see
/// mc::NetDag::ScheduledOp for how kernels map to ops): for every edge
/// producer -> consumer, every consumer kernel must start at or after
/// every producer kernel ended (regardless of which stream a kernel
/// landed on — launch faults reroute kernels to the default stream, which
/// is still ordering-safe). Ops with no kernels on the trace (data
/// layers, absorbed/fused members) pass vacuously.
OpScheduleReport check_op_schedule(
    const gpusim::Timeline& timeline,
    const std::vector<mc::NetDag::ScheduledOp>& ops);

struct FleetTransferReport {
  std::vector<RaceViolation> violations;
  std::size_t transfers_checked = 0;
  /// Max instantaneous aggregate rate observed on any one channel
  /// (bytes/ns == GB/s) — at most props.bandwidth_gbps when clean.
  double peak_channel_rate = 0.0;
  /// Channels that carried at least one transfer.
  std::size_t channels_used = 0;

  bool clean() const { return violations.empty(); }
  std::string to_string() const;
};

/// Check a fleet run's cross-device transfers against the interconnect
/// model's physical contract (docs/FLEET.md):
///
///   1. per-record sanity — request ≤ start, start ≤ end, and the
///      RateSegment profile tiles [start, end] exactly (contiguous,
///      in-bounds, non-negative rates);
///   2. conservation — every transfer's ∫rate dt equals its byte count;
///   3. capacity — at every instant, the rates of all transfers sharing
///      a channel sum to at most the link bandwidth, so contending
///      transfers each see a reduced share while transfers on disjoint
///      channels keep the full link to themselves.
///
/// The RaceViolation's `stream` field carries the channel index and
/// `correlation_id` the transfer id.
FleetTransferReport check_fleet_transfers(
    const std::vector<gpusim::TransferRecord>& transfers,
    const gpusim::LinkProps& props);

}  // namespace glpfuzz
