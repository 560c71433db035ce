#pragma once
// Discrete-event simulator of one GPU device.
//
// Execution model ("fluid occupancy" model):
//  * Kernels are admitted from per-stream FIFO queues, at most
//    `max_concurrent_kernels` (the paper's concurrency degree C) resident
//    at once.
//  * Resident kernels are packed onto SMs by `pack_residency` under the
//    hard per-SM limits (threads, shared memory, resident blocks). A
//    kernel's execution rate is the number of scalar lanes its resident
//    blocks can occupy; when resident kernels together demand more lanes
//    than the device has, rates scale proportionally (saturation).
//  * A kernel's total work is derived from its analytic cost (flops,
//    bytes) through a per-device roofline, so the same launch is
//    compute-bound on a K40C and bandwidth-bound on a P100.
//  * Per-launch host overhead (T_launch) and device-side start latency
//    model why very short kernels never overlap — the paper's observed
//    regression on ~2 ms layers (§4.2.1) and the T_K/T_launch bound in
//    Eq. 7.
//
// The host thread drives the simulation: launches enqueue work and
// advance the host clock; synchronisation calls run the event loop until
// the awaited condition holds. Host functors attached to kernels execute
// real math (the DNN layers' arithmetic) at kernel-completion time in
// simulated order, so stream-dependency bugs corrupt real numerics and
// are caught by the convergence-invariance tests.
//
// Two implementations share the `DeviceEngine` interface:
//  * `SimDevice` — the production engine. Flat indexed stream table, an
//    O(1) sequence window instead of an ordered incomplete-set, a
//    runnable-stream index (one bitset per priority, set while a
//    stream's queue head is released, not waiting on the stream's own
//    executing kernel or copy, and not parked behind an incomplete
//    default-stream op) so each pass visits only streams whose head could
//    start instead of every live stream, an incrementally maintained
//    event horizon (release min-heap + cached copy minimum), a resident
//    set of compact one-cache-line records repacked in one fused pass,
//    and lazily refreshed rates: a completion marks the resident set's
//    rates stale and the next read repacks it once, so a completion
//    followed by an admission at the same instant costs one repack. See
//    docs/PERFORMANCE.md ("Engine internals & hot path").
//  * `ReferenceEngine` (reference_engine.hpp) — the original loop, kept
//    verbatim as a testing seam. The two must stay event-for-event
//    bit-identical; tests/engine_equivalence_test.cpp and the fuzz
//    corpus's --engine-compare mode enforce it.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device_props.hpp"
#include "gpusim/inline_fn.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/timeline.hpp"
#include "gpusim/types.hpp"

namespace gpusim {

/// Aggregate utilisation counters, cheap enough to keep always-on.
struct DeviceStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t copies_issued = 0;
  double busy_lane_ns = 0.0;   ///< ∫ (occupied lanes) dt
  double active_ns = 0.0;      ///< time with ≥1 resident kernel
  double sim_span_ns = 0.0;    ///< total simulated time elapsed

  /// Mean fraction of lanes busy while the device was active.
  double mean_utilization(int total_lanes) const {
    return active_ns > 0.0 ? busy_lane_ns / (active_ns * total_lanes) : 0.0;
  }
};

/// Which event-loop implementation backs a device.
enum class EngineKind {
  kOptimized,  ///< SimDevice — the production hot-path engine
  kReference,  ///< ReferenceEngine — the original loop, for equivalence
};

/// Abstract device interface: everything the CUDA-like layers (simcuda,
/// simcupti, the scheduler, serving) need from a simulated GPU. The
/// submission-side state and clocks live here so both engines stamp ops
/// identically; the queueing containers and the event loop are the
/// implementation's business.
class DeviceEngine {
 public:
  using WorkFn = InlineFn;
  using KernelCallback = std::function<void(const KernelRecord&)>;
  using CopyCallback = std::function<void(const CopyRecord&)>;

  explicit DeviceEngine(DeviceProps props);
  virtual ~DeviceEngine() = default;
  DeviceEngine(const DeviceEngine&) = delete;
  DeviceEngine& operator=(const DeviceEngine&) = delete;

  const DeviceProps& props() const { return props_; }

  // --- streams ------------------------------------------------------------
  /// Create a new asynchronous stream (never returns kDefaultStream).
  /// Higher `priority` wins ties for admission when the concurrency
  /// degree is saturated (CUDA's cudaStreamCreateWithPriority; CUDA uses
  /// lower-is-higher, we use higher-is-higher for readability).
  /// `non_blocking` mirrors cudaStreamNonBlocking: ops on the stream do
  /// not synchronise with the legacy default stream in either direction —
  /// they neither wait for preceding default-stream ops nor hold up a
  /// default-stream barrier. Fleet communication streams use this so
  /// cross-device transfers overlap compute issued on the default stream.
  /// Device-wide synchronize() still waits for them.
  virtual StreamId create_stream(int priority = 0,
                                 bool non_blocking = false) = 0;
  /// Priority a stream was created with (0 for the default stream).
  virtual int stream_priority(StreamId stream) const = 0;
  /// Destroy a stream; pending work must have completed.
  virtual void destroy_stream(StreamId stream) = 0;
  /// Number of live streams, including the default stream.
  virtual int stream_count() const = 0;

  // --- work submission (host side; advances the host clock) ---------------
  /// Enqueue a kernel. `work` runs on the host at simulated completion
  /// time, in completion order. Returns a correlation id.
  virtual std::uint64_t launch_kernel(StreamId stream, std::string name,
                                      const LaunchConfig& config,
                                      const KernelCost& cost, WorkFn work) = 0;
  /// Enqueue an async copy over the PCIe copy engine for `dir`.
  virtual std::uint64_t memcpy_async(StreamId stream, std::size_t bytes,
                                     bool host_to_device, WorkFn work = {}) = 0;
  /// Enqueue a cross-device (peer) copy whose [start_ns, end_ns] span was
  /// computed externally by the fleet interconnect model (gpusim::LinkModel
  /// accounts link latency, bandwidth and contention). The op flows
  /// through the ordinary copy event machinery — `work` runs at end_ns in
  /// completion order, the record lands on the timeline tagged with
  /// `peer_device` — but it does not occupy the device's own PCIe copy
  /// engines and its release is the link-granted start time rather than
  /// the submitting host clock (the issuing driver models a dedicated
  /// communication thread). In-stream FIFO order still applies, so a
  /// driver must submit peer copies per stream in start-time order.
  virtual std::uint64_t memcpy_peer(StreamId stream, std::size_t bytes,
                                    int peer_device, SimTime start_ns,
                                    SimTime end_ns, WorkFn work = {}) = 0;
  /// Record an event in `stream`; completes when prior work in the stream
  /// has finished.
  virtual EventId record_event(StreamId stream) = 0;
  /// Record an event issued by the fleet's communication driver (a
  /// modelled dedicated thread, like memcpy_peer): zero host cost, and it
  /// becomes visible to the device at `issue_ns` instead of the dispatch
  /// thread's clock. Without this, a comm-stream marker submitted late in
  /// host time would block later link-scheduled copies queued behind it.
  virtual EventId record_event_at(StreamId stream, SimTime issue_ns) = 0;
  /// Make `stream` wait until `event` has been recorded.
  virtual void wait_event(StreamId stream, EventId event) = 0;
  /// Run a host function inside the stream's FIFO order.
  virtual void host_callback(StreamId stream, WorkFn fn) = 0;

  // --- synchronisation (runs the event loop) ------------------------------
  virtual void synchronize_stream(StreamId stream) = 0;
  virtual void synchronize_event(EventId event) = 0;
  virtual void synchronize() = 0;
  /// Non-blocking: has the event been reached? (Does not advance time.)
  virtual bool event_complete(EventId event) const = 0;
  /// Simulated timestamp at which the event was reached (it must be
  /// complete — check event_complete or synchronise first).
  virtual SimTime event_time(EventId event) const = 0;
  /// Non-blocking: does the stream have pending work?
  virtual bool stream_idle(StreamId stream) const = 0;
  /// Lookahead: run the device event loop up to device time `t`, so every
  /// completion (and event timestamp) at or before `t` becomes observable
  /// via event_complete/event_time. Unlike the synchronize_* calls this
  /// does NOT join the host clock to the device — observing the device is
  /// not a synchronisation point. Used by the serving event loop to poll
  /// in-flight batches without distorting host-side arrival timing.
  virtual void advance_device_to(SimTime t) = 0;
  /// Settle any ops that can start right now, then return the device time
  /// of the next pending event (+infinity when the device is idle). Lets
  /// the serving event loop advance exactly event-by-event instead of
  /// guessing a horizon.
  virtual SimTime peek_next_event() = 0;

  // --- clocks --------------------------------------------------------------
  /// Host-visible clock: advanced by launch overheads and by joining the
  /// device at synchronisation points.
  SimTime host_now() const { return host_time_; }
  /// Device simulation clock (may trail the host clock while work queues).
  SimTime device_now() const { return now_; }
  /// Model host-side work (e.g. GLP4NN's analysis phase) occupying the
  /// dispatch thread for `ns`.
  void host_advance(SimTime ns) { host_time_ += ns; }

  // --- introspection --------------------------------------------------------
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  /// Correlation id of the most recently submitted kernel or copy
  /// (profilers snapshot this to scope their record windows).
  std::uint64_t last_correlation() const { return next_correlation_ - 1; }
  const DeviceStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DeviceStats{}; }

  /// Completion hooks (used by simcupti). Called for every kernel/copy
  /// regardless of whether the timeline recorder is enabled.
  void set_kernel_callback(KernelCallback cb) { kernel_cb_ = std::move(cb); }
  void set_copy_callback(CopyCallback cb) { copy_cb_ = std::move(cb); }

  /// Ablation knob: when false, the register soft-constraint derating is
  /// skipped entirely.
  void set_register_penalty_enabled(bool enabled) { register_penalty_ = enabled; }

  /// Ambient multi-tenant tag: every op submitted while a tenant is set is
  /// stamped with it, and the tag is copied into the kernel/copy records
  /// (timeline, simcupti, chrome traces). -1 means untagged.
  void set_current_tenant(int tenant) { current_tenant_ = tenant; }

  /// Convert an analytic cost into total work in thread-cycles via the
  /// device roofline (exposed for tests and the analyzer).
  double work_thread_cycles(const LaunchConfig& config, const KernelCost& cost) const;

 protected:
  void validate_launch(const LaunchConfig& config) const;

  DeviceProps props_;
  Timeline timeline_;
  DeviceStats stats_;
  KernelCallback kernel_cb_;
  CopyCallback copy_cb_;
  bool register_penalty_ = true;

  SimTime now_ = 0.0;
  SimTime host_time_ = 0.0;
  int current_tenant_ = -1;

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_correlation_ = 1;
  EventId next_event_ = 1;
  StreamId next_stream_ = 1;
  std::uint64_t last_default_seq_ = 0;  ///< most recent default-stream op

  SimTime copy_engine_free_[2] = {0.0, 0.0};  ///< [h2d, d2h] availability
};

/// Construct an engine of the requested kind (the testing seam simcuda's
/// Context exposes; production code always gets kOptimized).
std::unique_ptr<DeviceEngine> make_device_engine(DeviceProps props,
                                                 EngineKind kind);

/// O(1) membership window over the dense, monotonically issued op
/// sequence numbers. Replaces the reference engine's std::set: insertion
/// is append-only, completion clears a flag, and the minimum incomplete
/// seq (the default-stream barrier test) is the window base. Storage is a
/// power-of-two ring sized to the widest in-flight window ever seen, so
/// steady-state operation allocates nothing.
class SeqWindow {
 public:
  /// Track `seq` as incomplete. Seqs must be inserted in increasing
  /// order with no gaps (the engine issues them that way).
  void insert(std::uint64_t seq);
  /// Mark a tracked seq complete.
  void complete(std::uint64_t seq);
  /// Is `seq` tracked and still incomplete?
  bool contains(std::uint64_t seq) const {
    return seq >= base_ && seq < end_ && state_[seq & mask()] != 0;
  }
  /// Smallest incomplete seq; only valid when !empty().
  std::uint64_t min_incomplete() const { return base_; }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

 private:
  std::size_t mask() const { return state_.size() - 1; }
  void grow();

  std::vector<std::uint8_t> state_;  ///< ring: 1 = incomplete
  std::uint64_t base_ = 1;           ///< all seqs < base_ are complete
  std::uint64_t end_ = 1;            ///< one past the highest inserted seq
  std::size_t count_ = 0;            ///< incomplete seqs in [base_, end_)
};

/// The production engine. Public semantics are defined by ReferenceEngine
/// (the original loop); this implementation must match it event-for-event
/// and bit-for-bit while doing asymptotically and constant-factor less
/// work per event.
class SimDevice final : public DeviceEngine {
 public:
  explicit SimDevice(DeviceProps props);

  StreamId create_stream(int priority = 0, bool non_blocking = false) override;
  int stream_priority(StreamId stream) const override;
  void destroy_stream(StreamId stream) override;
  int stream_count() const override { return live_streams_; }

  std::uint64_t launch_kernel(StreamId stream, std::string name,
                              const LaunchConfig& config, const KernelCost& cost,
                              WorkFn work) override;
  std::uint64_t memcpy_async(StreamId stream, std::size_t bytes,
                             bool host_to_device, WorkFn work = {}) override;
  std::uint64_t memcpy_peer(StreamId stream, std::size_t bytes, int peer_device,
                            SimTime start_ns, SimTime end_ns,
                            WorkFn work = {}) override;
  EventId record_event(StreamId stream) override;
  EventId record_event_at(StreamId stream, SimTime issue_ns) override;
  void wait_event(StreamId stream, EventId event) override;
  void host_callback(StreamId stream, WorkFn fn) override;

  void synchronize_stream(StreamId stream) override;
  void synchronize_event(EventId event) override;
  void synchronize() override;
  bool event_complete(EventId event) const override;
  SimTime event_time(EventId event) const override;
  bool stream_idle(StreamId stream) const override;
  void advance_device_to(SimTime t) override;
  SimTime peek_next_event() override;

 private:
  enum class OpKind : std::uint8_t {
    kKernel,
    kCopy,
    kEventRecord,
    kWaitEvent,
    kHostFn
  };

  struct Op {
    OpKind kind = OpKind::kKernel;
    std::uint64_t seq = 0;
    StreamId stream = kDefaultStream;
    SimTime release = 0.0;       ///< host time the op became visible
    std::uint64_t default_dep = 0;  ///< last default-stream op before us
    std::uint64_t stream_dep = 0;   ///< previous op in the same stream
    bool barrier = false;        ///< default-stream op: waits for ALL prior
    bool non_blocking = false;   ///< submitted to a non-blocking stream
    int tenant = -1;             ///< ambient tenant tag at submission

    // kKernel
    std::string name;
    LaunchConfig config;
    KernelCost cost;
    WorkFn work;
    std::uint64_t correlation = 0;

    // kCopy
    std::size_t bytes = 0;
    bool host_to_device = true;
    int peer = -1;               ///< peer device of a cross-device copy
    SimTime peer_start = 0.0;    ///< link-granted start (peer copies only)
    SimTime peer_end = 0.0;      ///< link-computed completion (peer copies only)

    // kEventRecord / kWaitEvent
    EventId event = 0;
    SimTime issue_at = -1.0;     ///< comm-driver release override (< 0: host)
  };

  /// One kernel of the resident set, in admission order: the fields the
  /// burn, the completion scan, the horizon and the repack read, packed
  /// into one cache line. The fat Op waits in kernel_slab_ until the
  /// kernel completes.
  struct Resident {
    double work_left = 0.0;      ///< thread-cycles
    SimTime latency_left = 0.0;  ///< device-side start latency to consume
    double rate = 0.0;           ///< thread-cycles per ns (current share)
    double lanes = 0.0;          ///< lanes occupied (for utilisation stats)
    double work_per_block = 0.0;
    /// Lanes one resident block can use: its threads rounded up to warps,
    /// capped at the cores of an SM.
    double lane_cap = 0.0;
    std::int32_t threads = 0;    ///< threads per block
    std::int32_t smem = 0;       ///< shared memory per block (bytes)
    std::int32_t regs = 0;       ///< registers per thread
    std::uint32_t slot = 0;      ///< the kernel's entry in kernel_slab_
  };
  static_assert(sizeof(Resident) == 64, "a resident record is one cache line");

  /// Cold half of a resident kernel: what only its completion reads.
  struct KernelSlot {
    Op op;
    SimTime admit_ns = 0.0;
  };

  struct ActiveCopy {
    Op op;
    SimTime start_ns = 0.0;
    SimTime end_ns = 0.0;
  };

  /// Runnable-stream bitset of one priority level: bit `id` is set while
  /// stream `id` is runnable (see runnable()).
  using RunnableBits = std::vector<std::uint64_t>;

  /// One slot of the flat stream table, indexed directly by StreamId
  /// (ids are dense and never reused).
  struct StreamState {
    std::deque<Op> queue;
    std::uint64_t last_seq = 0;  ///< seq of the newest op ever submitted
    int priority = 0;
    bool live = false;
    bool non_blocking = false;   ///< exempt from default-stream ordering
    /// A kernel or copy of this stream is executing. In-stream FIFO makes
    /// it the only one, and the queue head cannot start before it ends.
    bool in_flight = false;
    /// The queue head waits on an incomplete default-stream op (its
    /// default_dep, or for the default stream's own head the barrier) and
    /// is off the runnable index until that op completes.
    bool parked = false;
    RunnableBits* level = nullptr;  ///< this stream's bitset in runnable_
  };

  /// A lane-stream head parked on its incomplete default_dep.
  struct ParkedHead {
    std::uint64_t dep = 0;
    StreamId stream = kDefaultStream;
  };

  enum class EventState : std::uint8_t { kUnknown = 0, kPending, kRecorded };
  struct EventSlot {
    SimTime time = 0.0;
    EventState state = EventState::kUnknown;
  };

  /// Min-heap entry over stream-queue head release times: one entry per
  /// op that becomes a queue head with a future release. advance_to pops
  /// the entries the clock reaches and marks their streams runnable;
  /// peek_release also drops any whose head changed.
  struct ReleaseEntry {
    SimTime release = 0.0;
    StreamId stream = kDefaultStream;
    std::uint64_t seq = 0;
  };
  /// Heap order for release_heap_: the earliest release on top.
  static bool later_release(const ReleaseEntry& a, const ReleaseEntry& b) {
    return a.release > b.release;
  }

  void submit(Op op, SimTime host_cost_ns);
  void run_until(const std::function<bool()>& pred);

  /// Start every op that can start at the current sim time. Returns true
  /// if anything changed.
  bool start_ready_ops();
  /// Start a ready queue head (the caller pops it). Returns true if it
  /// admitted a kernel.
  bool start_op(Op& head);
  /// Could the stream's queue head start now, as far as the stream itself
  /// goes: it exists, its release time has come, no kernel or copy of the
  /// stream is executing, and it is not parked on the default stream.
  /// Cross-stream conditions (events, the concurrency degree) are
  /// op_ready's.
  bool runnable(const StreamState& st) const {
    return !st.queue.empty() && !st.in_flight && !st.parked &&
           st.queue.front().release <= now_;
  }
  void set_runnable(StreamId stream, bool on);
  /// A stream's executing kernel or copy completed.
  void end_in_flight(StreamId stream);
  /// Mark the streams whose queue heads the clock has released runnable.
  void wake_released();
  /// If a released head waits on an incomplete default-stream op (the
  /// barrier test or its default_dep), park its stream off the runnable
  /// index and return true.
  bool park_on_default_stream(StreamId stream, const Op& head);
  /// Return a parked stream to the runnable index.
  void unpark(StreamId stream);
  /// The remaining readiness tests of a released head that is not waiting
  /// on the default stream (ReferenceEngine::op_ready's other clauses).
  bool op_ready(const Op& op) const;
  void complete_op_bookkeeping(std::uint64_t seq, bool non_blocking);
  /// Repack the resident set and rescale every kernel's lanes and rate
  /// (ReferenceEngine::recompute_rates) in one pass over resident_;
  /// clears rates_stale_.
  void recompute_rates();
  /// Earliest pending event (kernel ETA, copy end, queue-head release);
  /// refreshes stale rates before reading them.
  SimTime next_event_time();
  SimTime peek_release() const;
  void push_release(const Op& head);
  void advance_to(SimTime t);
  void finish_kernel(std::size_t idx);
  bool stream_live(StreamId stream) const {
    return stream >= 0 && static_cast<std::size_t>(stream) < streams_.size() &&
           streams_[static_cast<std::size_t>(stream)]->live;
  }
  StreamState& stream_state(StreamId stream) {
    return *streams_[static_cast<std::size_t>(stream)];
  }
  const StreamState& stream_state(StreamId stream) const {
    return *streams_[static_cast<std::size_t>(stream)];
  }

  // One heap node per stream: StreamState holds a move-only op queue (no
  // copy fallback for vector reallocation), and a fixed node keeps
  // references stable across create_stream calls made from host functors.
  std::vector<std::unique_ptr<StreamState>> streams_;  ///< indexed by StreamId
  /// Runnable-stream index, one bitset per priority, highest priority
  /// first. Walking it by priority desc, then id asc, is the order the
  /// reference loop re-derives by stable_sort every pass. Map nodes are
  /// stable, so StreamState::level pointers survive new levels.
  std::map<int, RunnableBits, std::greater<>> runnable_;
  int live_streams_ = 0;
  std::size_t queued_ops_ = 0;         ///< total ops across all queues

  SeqWindow incomplete_;               ///< submitted-not-finished ops
  /// Mirror of incomplete_ that treats non-blocking-stream ops as already
  /// complete (they are inserted and completed in the same breath), so
  /// the default-stream barrier test — min incomplete *blocking* seq —
  /// stays O(1) and never waits on fleet communication traffic.
  SeqWindow barrier_window_;
  std::vector<EventSlot> events_;      ///< indexed by EventId (slot 0 unused)

  std::vector<Resident> resident_;      ///< admission order
  /// Ops of resident kernels, indexed by Resident::slot; free_slots_
  /// lists the unused entries, so the slab never outgrows the largest
  /// resident set.
  std::vector<KernelSlot> kernel_slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<ActiveCopy> copies_;
  SimTime copy_min_end_;               ///< min end_ns over copies_ (+inf if none)
  mutable std::vector<ReleaseEntry> release_heap_;

  /// Lane-stream heads parked on their default_dep, and the smallest
  /// such dep (0: none). Default-stream ops complete in seq order, so the
  /// smallest dep is the next one whose completion wakes anything.
  std::vector<ParkedHead> parked_;
  std::uint64_t next_wake_dep_ = 0;
  /// Seq of the default stream's head while it is parked on the barrier
  /// (0: not parked); it wakes when it is the oldest incomplete blocking
  /// op.
  std::uint64_t parked_barrier_ = 0;

  /// A kernel completed since the last repack: resident_'s lanes and
  /// rates are the pre-completion ones until recompute_rates runs.
  bool rates_stale_ = false;
};

}  // namespace gpusim
