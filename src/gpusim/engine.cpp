#include "gpusim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"
#include "gpusim/reference_engine.hpp"

namespace gpusim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kWorkEpsilon = 1e-6;  // thread-cycles considered "done"
constexpr int kMaxThreadsPerBlock = 1024;
}  // namespace

// ---------------------------------------------------------------------------
// DeviceEngine — shared submission-side behaviour

DeviceEngine::DeviceEngine(DeviceProps props) : props_(std::move(props)) {
  GLP_REQUIRE(props_.sm_count > 0 && props_.cores_per_sm > 0 &&
                  props_.clock_ghz > 0.0,
              "device must have positive compute resources");
}

void DeviceEngine::validate_launch(const LaunchConfig& config) const {
  GLP_REQUIRE(config.total_blocks() > 0, "kernel grid must be non-empty");
  GLP_REQUIRE(config.threads_per_block() > 0 &&
                  config.threads_per_block() <= kMaxThreadsPerBlock,
              "block size " << config.threads_per_block()
                            << " outside (0, " << kMaxThreadsPerBlock << "]");
  GLP_REQUIRE(config.smem_per_block() <= props_.shared_mem_per_sm,
              "block shared memory " << config.smem_per_block()
                                     << " exceeds per-SM capacity "
                                     << props_.shared_mem_per_sm);
}

double DeviceEngine::work_thread_cycles(const LaunchConfig& config,
                                        const KernelCost& cost) const {
  // Roofline: the kernel's duration at full device occupancy is
  // max(compute time, memory time); convert that duration into
  // thread-cycles against the full lane count so the fluid scheduler can
  // meter progress at any occupancy.
  const double lanes = props_.total_lanes();
  const double compute_cycles = cost.flops / 2.0;  // FMA: 2 flops per lane-cycle
  const double mem_ns = cost.bytes / props_.mem_bandwidth_gbs;
  const double mem_cycles = mem_ns * lanes * props_.clock_ghz;
  // Every launched thread costs at least a handful of cycles even for a
  // no-op kernel (instruction fetch, prologue/epilogue).
  const double floor_cycles = static_cast<double>(config.total_threads()) * 8.0;
  return std::max({compute_cycles, mem_cycles, floor_cycles});
}

std::unique_ptr<DeviceEngine> make_device_engine(DeviceProps props,
                                                 EngineKind kind) {
  if (kind == EngineKind::kReference) {
    return std::make_unique<ReferenceEngine>(std::move(props));
  }
  return std::make_unique<SimDevice>(std::move(props));
}

// ---------------------------------------------------------------------------
// SeqWindow

void SeqWindow::insert(std::uint64_t seq) {
  GLP_CHECK(seq == end_);  // seqs are issued densely and monotonically
  if (state_.empty() || end_ - base_ >= state_.size()) grow();
  state_[seq & mask()] = 1;
  ++end_;
  ++count_;
}

void SeqWindow::complete(std::uint64_t seq) {
  GLP_CHECK(seq >= base_ && seq < end_ && state_[seq & mask()] != 0);
  state_[seq & mask()] = 0;
  --count_;
  while (base_ < end_ && state_[base_ & mask()] == 0) ++base_;
}

void SeqWindow::grow() {
  const std::size_t new_size = state_.empty() ? 64 : state_.size() * 2;
  std::vector<std::uint8_t> fresh(new_size, 0);
  for (std::uint64_t s = base_; s < end_; ++s) {
    fresh[s & (new_size - 1)] = state_[s & mask()];
  }
  state_ = std::move(fresh);
}

// ---------------------------------------------------------------------------
// SimDevice — the optimized engine
//
// Bit-exactness ground rules (see reference_engine.cpp for the spec):
//  * Kernel completion ETAs are recomputed with the reference's exact
//    expression (now_ + latency_left + work_left / rate) rather than
//    cached as absolute times — the fluid state evolves by successive
//    subtraction, so a cached ETA would drift by an ulp.
//  * min() over doubles is order-independent, so replacing scans with a
//    cached minimum (copies) or an indexed subset (release heap) is safe.
//  * Rates are refreshed lazily: a completion marks them stale, and the
//    next read — next_event_time, advance_to's burn, or a completion test
//    a kernel could pass — repacks first. Nothing burns work between the
//    completion and that read, so the repack sees the reference's inputs
//    and yields its doubles. The completion scan repacks a stale set only
//    for a kernel within ε at R = 2 * total lanes * clock, a bound on
//    every rate (lanes <= capacity, slowdown <= 1): ε grows with the rate,
//    so a kernel outside it fails the test at the stale and the fresh
//    rate alike.
//  * A head waiting on an incomplete default-stream op (its default_dep,
//    or the default stream's own head on the barrier) is parked off the
//    runnable index, and the op's completion puts it back. A pass would
//    only have failed it, and the wake-up sets its bit at once, so a pass
//    still running visits it exactly when the reference's walk would find
//    it ready.

SimDevice::SimDevice(DeviceProps props) : DeviceEngine(std::move(props)) {
  auto def = std::make_unique<StreamState>();
  def->live = true;
  def->level = &runnable_[0];
  def->level->resize(1);
  streams_.push_back(std::move(def));  // the default stream always exists
  live_streams_ = 1;
  events_.resize(1);  // EventIds start at 1; slot 0 stays kUnknown
  copy_min_end_ = kInf;
}

StreamId SimDevice::create_stream(int priority, bool non_blocking) {
  const StreamId id = next_stream_++;
  GLP_CHECK(static_cast<std::size_t>(id) == streams_.size());
  auto st = std::make_unique<StreamState>();
  st->priority = priority;
  st->live = true;
  st->non_blocking = non_blocking;
  // Size the level's bitset to cover the new id now, so marking the
  // stream runnable never grows it.
  st->level = &runnable_[priority];
  st->level->resize(std::max(st->level->size(),
                             static_cast<std::size_t>(id) / 64 + 1));
  streams_.push_back(std::move(st));
  ++live_streams_;
  return id;
}

int SimDevice::stream_priority(StreamId stream) const {
  return stream_live(stream) ? stream_state(stream).priority : 0;
}

void SimDevice::destroy_stream(StreamId stream) {
  GLP_REQUIRE(stream != kDefaultStream, "cannot destroy the default stream");
  GLP_REQUIRE(stream_live(stream), "destroying unknown stream " << stream);
  synchronize_stream(stream);
  StreamState& st = stream_state(stream);
  st.live = false;
  st.queue = std::deque<Op>();  // release queue storage
  set_runnable(stream, false);
  --live_streams_;
}

void SimDevice::set_runnable(StreamId stream, bool on) {
  const auto id = static_cast<std::size_t>(stream);
  std::uint64_t& word = (*stream_state(stream).level)[id / 64];
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  word = on ? (word | bit) : (word & ~bit);
}

void SimDevice::end_in_flight(StreamId stream) {
  StreamState& st = stream_state(stream);
  st.in_flight = false;
  set_runnable(stream, runnable(st));
}

void SimDevice::wake_released() {
  // The clock only moves forward, so every entry at or below it is a
  // head that has just become due.
  while (!release_heap_.empty() && release_heap_.front().release <= now_) {
    const StreamId stream = release_heap_.front().stream;
    std::pop_heap(release_heap_.begin(), release_heap_.end(), later_release);
    release_heap_.pop_back();
    if (stream_live(stream)) {
      set_runnable(stream, runnable(stream_state(stream)));
    }
  }
}

std::uint64_t SimDevice::launch_kernel(StreamId stream, std::string name,
                                       const LaunchConfig& config,
                                       const KernelCost& cost, WorkFn work) {
  validate_launch(config);
  Op op;
  op.kind = OpKind::kKernel;
  op.stream = stream;
  op.name = std::move(name);
  op.config = config;
  op.cost = cost;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  submit(std::move(op), props_.kernel_launch_overhead_us * kUs);
  ++stats_.kernels_launched;
  return correlation;
}

std::uint64_t SimDevice::memcpy_async(StreamId stream, std::size_t bytes,
                                      bool host_to_device, WorkFn work) {
  Op op;
  op.kind = OpKind::kCopy;
  op.stream = stream;
  op.bytes = bytes;
  op.host_to_device = host_to_device;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  // Async copies cost far less host time than kernel launches.
  submit(std::move(op), 1.0 * kUs);
  ++stats_.copies_issued;
  return correlation;
}

std::uint64_t SimDevice::memcpy_peer(StreamId stream, std::size_t bytes,
                                     int peer_device, SimTime start_ns,
                                     SimTime end_ns, WorkFn work) {
  GLP_REQUIRE(peer_device >= 0, "memcpy_peer needs a peer device index");
  GLP_REQUIRE(end_ns >= start_ns, "memcpy_peer span must be non-negative");
  Op op;
  op.kind = OpKind::kCopy;
  op.stream = stream;
  op.bytes = bytes;
  op.peer = peer_device;
  op.peer_start = start_ns;
  op.peer_end = end_ns;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  // Zero host cost: peer copies are issued by the fleet's communication
  // driver (a modelled dedicated thread), not the compute dispatch thread.
  submit(std::move(op), 0.0);
  ++stats_.copies_issued;
  return correlation;
}

EventId SimDevice::record_event(StreamId stream) {
  Op op;
  op.kind = OpKind::kEventRecord;
  op.stream = stream;
  op.event = next_event_++;
  const EventId id = op.event;
  GLP_CHECK(static_cast<std::size_t>(id) == events_.size());
  events_.push_back(EventSlot{0.0, EventState::kPending});
  submit(std::move(op), 0.3 * kUs);
  return id;
}

EventId SimDevice::record_event_at(StreamId stream, SimTime issue_ns) {
  GLP_REQUIRE(issue_ns >= 0.0, "record_event_at needs a non-negative time");
  Op op;
  op.kind = OpKind::kEventRecord;
  op.stream = stream;
  op.event = next_event_++;
  op.issue_at = issue_ns;
  const EventId id = op.event;
  GLP_CHECK(static_cast<std::size_t>(id) == events_.size());
  events_.push_back(EventSlot{0.0, EventState::kPending});
  // Zero host cost: issued by the fleet's communication driver, like
  // memcpy_peer.
  submit(std::move(op), 0.0);
  return id;
}

void SimDevice::wait_event(StreamId stream, EventId event) {
  GLP_REQUIRE(event < events_.size() &&
                  events_[event].state != EventState::kUnknown,
              "waiting on unknown event " << event);
  Op op;
  op.kind = OpKind::kWaitEvent;
  op.stream = stream;
  op.event = event;
  submit(std::move(op), 0.3 * kUs);
}

void SimDevice::host_callback(StreamId stream, WorkFn fn) {
  Op op;
  op.kind = OpKind::kHostFn;
  op.stream = stream;
  op.work = std::move(fn);
  submit(std::move(op), 0.3 * kUs);
}

void SimDevice::submit(Op op, SimTime host_cost_ns) {
  GLP_REQUIRE(stream_live(op.stream),
              "submission to unknown stream " << op.stream);
  StreamState& st = stream_state(op.stream);
  op.seq = next_seq_++;
  op.release = host_time_;
  op.tenant = current_tenant_;
  op.non_blocking = st.non_blocking;
  host_time_ += host_cost_ns;
  if (op.kind == OpKind::kCopy && op.peer >= 0) {
    // Peer copies release at the link-granted start time: the fleet comm
    // driver stands in for a dedicated communication thread, so the
    // compute dispatch clock must not gate (or be charged for) them.
    op.release = op.peer_start;
  }
  if (op.issue_at >= 0.0) {
    // Same dedicated-thread semantics for comm-driver event records.
    op.release = op.issue_at;
  }
  // In-stream FIFO: each op waits for the completion of its predecessor
  // in the same stream (ops are admitted for execution the moment they
  // reach the queue head, so this dependency is what serialises a
  // stream's kernels on the device).
  op.stream_dep = st.last_seq;
  st.last_seq = op.seq;
  if (op.stream == kDefaultStream) {
    // Legacy default-stream semantics: acts as a barrier against every
    // other stream, and later work in any stream waits for it.
    op.barrier = true;
    last_default_seq_ = op.seq;
    op.default_dep = 0;
  } else {
    // Non-blocking streams opt out of legacy default-stream ordering in
    // both directions (cudaStreamNonBlocking).
    op.default_dep = op.non_blocking ? 0 : last_default_seq_;
  }
  incomplete_.insert(op.seq);
  barrier_window_.insert(op.seq);
  if (op.non_blocking) barrier_window_.complete(op.seq);
  const bool becomes_head = st.queue.empty();
  st.queue.push_back(std::move(op));
  ++queued_ops_;
  if (becomes_head) {
    const Op& head = st.queue.front();
    if (head.release > now_) push_release(head);
    set_runnable(head.stream, runnable(st));
  }
}

void SimDevice::push_release(const Op& head) {
  release_heap_.push_back(
      ReleaseEntry{head.release, head.stream, head.seq});
  std::push_heap(release_heap_.begin(), release_heap_.end(), later_release);
}

SimTime SimDevice::peek_release() const {
  // Drop entries that are no longer a queue head (the op started) or
  // whose release has passed (wake_released pops those as the clock
  // reaches them; now_ is monotone, so they can never bound a future
  // horizon either).
  while (!release_heap_.empty()) {
    const ReleaseEntry& top = release_heap_.front();
    if (top.release > now_) {
      const StreamState& st = stream_state(top.stream);
      if (st.live && !st.queue.empty() && st.queue.front().seq == top.seq) {
        return top.release;
      }
    }
    std::pop_heap(release_heap_.begin(), release_heap_.end(), later_release);
    release_heap_.pop_back();
  }
  return kInf;
}

bool SimDevice::park_on_default_stream(StreamId stream, const Op& head) {
  if (head.barrier) {
    // Ready only when every earlier-submitted *blocking* op has completed
    // (non-blocking streams are exempt from the legacy barrier).
    GLP_CHECK(!barrier_window_.empty());
    if (barrier_window_.min_incomplete() == head.seq) return false;
    parked_barrier_ = head.seq;
  } else if (head.default_dep != 0 && incomplete_.contains(head.default_dep)) {
    parked_.push_back(ParkedHead{head.default_dep, stream});
    if (next_wake_dep_ == 0 || head.default_dep < next_wake_dep_) {
      next_wake_dep_ = head.default_dep;
    }
  } else {
    return false;
  }
  stream_state(stream).parked = true;
  set_runnable(stream, false);
  return true;
}

void SimDevice::unpark(StreamId stream) {
  StreamState& st = stream_state(stream);
  st.parked = false;
  set_runnable(stream, runnable(st));
}

bool SimDevice::op_ready(const Op& op) const {
  if (op.release > now_) return false;
  if (op.stream_dep != 0 && incomplete_.contains(op.stream_dep)) return false;
  if (op.kind == OpKind::kWaitEvent) {
    return events_[op.event].state == EventState::kRecorded;
  }
  if (op.kind == OpKind::kKernel) {
    return static_cast<int>(resident_.size()) < props_.max_concurrent_kernels;
  }
  return true;
}

void SimDevice::complete_op_bookkeeping(std::uint64_t seq, bool non_blocking) {
  incomplete_.complete(seq);
  // Non-blocking ops were marked complete in the barrier window at
  // submission; completing them twice would corrupt its count. They are
  // nobody's default_dep and never move the barrier either.
  if (non_blocking) return;
  barrier_window_.complete(seq);
  if (seq == next_wake_dep_) {
    // Wake the heads parked on this default-stream op; the rest wait on
    // later ones.
    next_wake_dep_ = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      const ParkedHead p = parked_[i];
      if (p.dep == seq) {
        unpark(p.stream);
        continue;
      }
      parked_[kept++] = p;
      if (next_wake_dep_ == 0 || p.dep < next_wake_dep_) next_wake_dep_ = p.dep;
    }
    parked_.resize(kept);
  }
  if (parked_barrier_ != 0 &&
      barrier_window_.min_incomplete() == parked_barrier_) {
    parked_barrier_ = 0;
    unpark(kDefaultStream);
  }
}

bool SimDevice::start_ready_ops() {
  if (queued_ops_ == 0) return false;
  bool progress = false;
  bool kernel_admitted = false;
  // Walk the runnable streams by (priority desc, id asc) — the order the
  // reference loop re-derives by stable_sort every pass — and drain each
  // one's ready heads. Skipping the other streams changes nothing: their
  // heads would fail op_ready. The reference drains a per-pass snapshot
  // of the streams, so streams created by host functors below (ids >=
  // limit) do not join this pass. Work a functor queues on a stream past
  // the cursor is still visited: every step re-reads the current word.
  const auto limit = static_cast<std::size_t>(next_stream_);
  for (auto& level : runnable_) {
    const RunnableBits& bits = level.second;  // a functor may grow it
    for (std::size_t w = 0; w < bits.size() && w * 64 < limit; ++w) {
      const std::size_t base = w * 64;
      const std::uint64_t in_pass =
          limit - base >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (limit - base)) - 1;
      std::uint64_t pending = bits[w] & in_pass;
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        const StreamId sid = static_cast<StreamId>(base) + b;
        for (;;) {
          Op& head = stream_state(sid).queue.front();
          if (park_on_default_stream(sid, head) || !op_ready(head)) break;
          kernel_admitted |= start_op(head);
          progress = true;
          // Pop the consumed head. Re-fetch the stream slot: a host
          // functor may have submitted more work to this queue.
          StreamState& cur = stream_state(sid);
          cur.queue.pop_front();
          --queued_ops_;
          if (!cur.queue.empty() && cur.queue.front().release > now_) {
            push_release(cur.queue.front());
          }
          if (!runnable(cur)) {
            set_runnable(sid, false);
            break;
          }
        }
        pending = bits[w] & in_pass & ((~std::uint64_t{0} << b) << 1);
      }
    }
  }
  if (kernel_admitted) recompute_rates();
  return progress;
}

bool SimDevice::start_op(Op& head) {
  switch (head.kind) {
    case OpKind::kKernel: {
      stream_state(head.stream).in_flight = true;
      const LaunchConfig& config = head.config;
      const std::uint64_t threads = config.threads_per_block();
      Resident k;
      k.latency_left = props_.kernel_start_latency_us * kUs;
      k.work_left = work_thread_cycles(config, head.cost);
      k.work_per_block =
          k.work_left / static_cast<double>(config.total_blocks());
      const double warp_threads =
          static_cast<double>((threads + props_.warp_size - 1) / props_.warp_size) *
          props_.warp_size;
      k.lane_cap = std::min(warp_threads, static_cast<double>(props_.cores_per_sm));
      // validate_launch bounds both: <= 1024 threads, <= one SM's smem.
      k.threads = static_cast<std::int32_t>(threads);
      k.smem = static_cast<std::int32_t>(config.smem_per_block());
      k.regs = config.regs_per_thread;
      if (free_slots_.empty()) {
        k.slot = static_cast<std::uint32_t>(kernel_slab_.size());
        kernel_slab_.push_back(KernelSlot{std::move(head), now_});
      } else {
        k.slot = free_slots_.back();
        free_slots_.pop_back();
        kernel_slab_[k.slot] = KernelSlot{std::move(head), now_};
      }
      resident_.push_back(k);
      return true;
    }
    case OpKind::kCopy: {
      stream_state(head.stream).in_flight = true;
      ActiveCopy copy;
      copy.op = std::move(head);
      if (copy.op.peer >= 0) {
        // Cross-device transfer: the span was fixed by the link model.
        // The end is clamped to `now` so an op that becomes runnable
        // after its link span (stream backlog) completes immediately
        // instead of handing advance_to a past-time event.
        copy.start_ns = copy.op.peer_start;
        copy.end_ns = std::max(copy.op.peer_end, now_);
      } else {
        const int dir = copy.op.host_to_device ? 0 : 1;
        copy.start_ns = std::max(now_, copy_engine_free_[dir]);
        copy.end_ns = copy.start_ns + static_cast<double>(copy.op.bytes) /
                                          props_.pcie_bandwidth_gbs;
        copy_engine_free_[dir] = copy.end_ns;
      }
      copy_min_end_ = std::min(copy_min_end_, copy.end_ns);
      copies_.push_back(std::move(copy));
      return false;
    }
    case OpKind::kEventRecord:
      events_[head.event] = EventSlot{now_, EventState::kRecorded};
      break;
    case OpKind::kWaitEvent:
      break;
    case OpKind::kHostFn:
      if (head.work) head.work();
      break;
  }
  complete_op_bookkeeping(head.seq, head.non_blocking);
  return false;
}

void SimDevice::recompute_rates() {
  rates_stale_ = false;
  if (resident_.empty()) return;

  // ReferenceEngine::recompute_rates fused into one admission-order pass:
  // each kernel's residency request, its packer step, its register load
  // and its lane demand (parked in `lanes` until the scale is known). The
  // sums run in the reference's order, so they round alike. Once the
  // per-SM budget is exhausted every later kernel packs zero blocks, adds
  // zero to both sums and gets no lanes.
  PackBudget budget(props_);
  double regs = 0.0;
  double total_demand = 0.0;
  double avg_per_sm = 0.0;
  std::size_t packed = 0;
  for (; packed < resident_.size() && !budget.exhausted(); ++packed) {
    Resident& k = resident_[packed];
    const double blocks_left =
        k.work_per_block > 0.0 ? k.work_left / k.work_per_block : 1.0;
    const auto blocks_wanted = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, ceil_nonneg(blocks_left)));
    const ResidencySlot slot =
        pack_step(props_, budget, blocks_wanted, k.threads, k.smem, avg_per_sm);
    regs += avg_per_sm * static_cast<double>(k.threads) * k.regs;
    // Lane allocation: each resident block can use at most lane_cap
    // lanes; when the aggregate demand exceeds the device's lanes,
    // everyone scales proportionally.
    k.lanes = static_cast<double>(slot.resident_blocks) * k.lane_cap;
    total_demand += k.lanes;
  }

  double slowdown = 1.0;
  if (register_penalty_) {
    slowdown =
        register_slowdown(regs / static_cast<double>(props_.registers_per_sm));
  }
  const double capacity = static_cast<double>(props_.total_lanes());
  const double scale = (total_demand > capacity) ? capacity / total_demand : 1.0;

  for (std::size_t i = 0; i < packed; ++i) {
    Resident& k = resident_[i];
    k.lanes = k.lanes * scale;
    k.rate = k.lanes * props_.clock_ghz * slowdown;
  }
  for (std::size_t i = packed; i < resident_.size(); ++i) {
    resident_[i].lanes = 0.0;
    resident_[i].rate = 0.0;
  }
}

SimTime SimDevice::next_event_time() {
  if (rates_stale_) recompute_rates();
  SimTime t = kInf;
  // Kernel ETAs use the reference's exact expression; the resident set is
  // bounded by max_concurrent_kernels, so this scan is O(C), not O(ops).
  for (const Resident& k : resident_) {
    if (k.rate > 0.0) {
      t = std::min(t, now_ + k.latency_left + k.work_left / k.rate);
    } else if (k.latency_left > 0.0) {
      t = std::min(t, now_ + k.latency_left);
    }
  }
  t = std::min(t, copy_min_end_);
  t = std::min(t, peek_release());
  return t;
}

void SimDevice::advance_to(SimTime t) {
  GLP_CHECK(t >= now_);
  const SimTime dt = t - now_;
  if (dt > 0.0) {
    if (rates_stale_) recompute_rates();
    double busy_lanes = 0.0;
    for (Resident& k : resident_) {
      SimTime run_dt = dt;
      if (k.latency_left > 0.0) {
        const SimTime consumed = std::min(k.latency_left, run_dt);
        k.latency_left -= consumed;
        run_dt -= consumed;
      }
      if (run_dt > 0.0 && k.rate > 0.0) {
        k.work_left = std::max(0.0, k.work_left - k.rate * run_dt);
        busy_lanes += k.lanes;  // approximation: latency phase excluded
      }
    }
    stats_.busy_lane_ns += busy_lanes * dt;
    if (!resident_.empty()) stats_.active_ns += dt;
    stats_.sim_span_ns += dt;
    now_ = t;
    wake_released();
  }

  // Clamp latency residues too small to be represented as a time advance
  // (below ~1 ulp of the clock): their "latency end" event would round to
  // `now` and the loop could never consume them.
  for (Resident& k : resident_) {
    if (k.latency_left > 0.0 && k.latency_left <= now_ * 1e-12 + 1e-9) {
      k.latency_left = 0.0;
    }
  }

  // Complete finished kernels in deterministic (admission seq) order.
  // The completion threshold scales with the clock: residual work smaller
  // than what the kernel processes in one representable time step (~ulp
  // of `now`) can never be burnt down by a further advance, so it counts
  // as done. Without this the loop would spin on a femtosecond residue.
  // While a completion has left the rates stale, only a kernel that passes
  // at the rate bound `max_rate` could pass at its fresh rate: repack then.
  const auto epsilon = [this](double rate) {
    return kWorkEpsilon + rate * (now_ * 1e-9 + 1e-6);
  };
  const double max_rate = 2.0 * props_.total_lanes() * props_.clock_ghz;
  bool any_finished = true;
  while (any_finished) {
    any_finished = false;
    for (std::size_t i = 0; i < resident_.size(); ++i) {
      if (resident_[i].latency_left > 0.0) continue;
      if (rates_stale_) {
        if (resident_[i].work_left > epsilon(max_rate)) continue;
        recompute_rates();
      }
      const Resident& k = resident_[i];
      if (k.work_left <= epsilon(k.rate)) {
        finish_kernel(i);
        any_finished = true;
        break;
      }
    }
  }

  // The cached minimum tells us whether any copy can complete at all; the
  // reference's per-element test (end_ns <= now_ + 1e-9) is false for
  // every copy exactly when the minimum exceeds the threshold.
  if (copy_min_end_ <= now_ + 1e-9) {
    for (std::size_t i = 0; i < copies_.size();) {
      if (copies_[i].end_ns <= now_ + 1e-9) {
        ActiveCopy done = std::move(copies_[i]);
        copies_.erase(copies_.begin() + static_cast<std::ptrdiff_t>(i));
        if (done.op.work) done.op.work();
        CopyRecord rec;
        rec.correlation_id = done.op.correlation;
        rec.stream = done.op.stream;
        rec.bytes = done.op.bytes;
        rec.host_to_device = done.op.host_to_device;
        rec.start_ns = done.start_ns;
        rec.end_ns = done.end_ns;
        rec.tenant = done.op.tenant;
        rec.peer = done.op.peer;
        timeline_.add_copy(rec);
        if (copy_cb_) copy_cb_(rec);
        complete_op_bookkeeping(done.op.seq, done.op.non_blocking);
        end_in_flight(done.op.stream);
      } else {
        ++i;
      }
    }
    copy_min_end_ = kInf;
    for (const ActiveCopy& c : copies_) {
      copy_min_end_ = std::min(copy_min_end_, c.end_ns);
    }
  }
}

void SimDevice::finish_kernel(std::size_t idx) {
  const std::uint32_t slot = resident_[idx].slot;
  resident_.erase(resident_.begin() + static_cast<std::ptrdiff_t>(idx));
  // Move the op out before its functor runs: the functor may launch
  // kernels, and admitting one can grow the slab.
  KernelSlot done = std::move(kernel_slab_[slot]);
  free_slots_.push_back(slot);

  if (done.op.work) done.op.work();

  KernelRecord rec;
  rec.correlation_id = done.op.correlation;
  rec.name = std::move(done.op.name);
  rec.stream = done.op.stream;
  rec.config = done.op.config;
  rec.submit_ns = done.op.release;
  rec.start_ns = done.admit_ns;
  rec.end_ns = now_;
  rec.tenant = done.op.tenant;
  timeline_.add_kernel(rec);
  if (kernel_cb_) kernel_cb_(rec);

  complete_op_bookkeeping(done.op.seq, done.op.non_blocking);
  end_in_flight(done.op.stream);
  rates_stale_ = true;  // the next read repacks (see the ground rules)
}

void SimDevice::run_until(const std::function<bool()>& pred) {
  // Stall guard: if the loop spins without the clock moving or work
  // completing, something violated an engine invariant — fail loudly with
  // state instead of hanging.
  int spins = 0;
  SimTime last_now = now_;
  std::size_t last_incomplete = incomplete_.size();

  while (!pred()) {
    if (start_ready_ops()) continue;
    const SimTime t = next_event_time();
    if (t == kInf) {
      // Nothing can ever make progress: either the predicate references
      // work that was never submitted, or there is a dependency cycle.
      throw glp::InternalError("gpusim: simulation stalled with no runnable work");
    }
    advance_to(t);

    if (now_ > last_now || incomplete_.size() != last_incomplete) {
      spins = 0;
      last_now = now_;
      last_incomplete = incomplete_.size();
    } else if (++spins > 100000) {
      std::string state = "gpusim: event loop is spinning; now=" +
                          std::to_string(now_) +
                          " next_event=" + std::to_string(next_event_time()) +
                          " resident=" + std::to_string(resident_.size()) +
                          " copies=" + std::to_string(copies_.size());
      for (StreamId stream = 0;
           static_cast<std::size_t>(stream) < streams_.size(); ++stream) {
        const StreamState& st = stream_state(stream);
        if (!st.live || st.queue.empty()) continue;
        const Op& head = st.queue.front();
        state += " q" + std::to_string(stream) + "[head seq=" +
                 std::to_string(head.seq) +
                 " kind=" + std::to_string(static_cast<int>(head.kind)) +
                 " rel=" + std::to_string(head.release) +
                 " sdep=" + std::to_string(head.stream_dep) +
                 " ddep=" + std::to_string(head.default_dep) + "]";
      }
      double min_eta = -1;
      for (const Resident& k : resident_) {
        if (k.rate > 0.0) {
          const double eta = now_ + k.latency_left + k.work_left / k.rate;
          if (min_eta < 0 || eta < min_eta) min_eta = eta;
        }
      }
      state += " min_kernel_eta=" + std::to_string(min_eta);
      throw glp::InternalError(state);
    }
  }
  host_time_ = std::max(host_time_, now_);
}

void SimDevice::advance_device_to(SimTime t) {
  // Lookahead for the serving event loop: drive the event loop until every
  // device-side event at or before `t` has been processed. Intentionally
  // leaves the host clock untouched (restored below) — peeking at the
  // device is not a synchronisation point.
  const SimTime saved_host = host_time_;
  int spins = 0;
  for (;;) {
    if (start_ready_ops()) {
      spins = 0;
      continue;
    }
    const SimTime next = next_event_time();
    if (next > t) break;
    GLP_CHECK(next >= now_);
    if (next > now_) spins = 0;
    else if (++spins > 100000) {
      throw glp::InternalError("gpusim: lookahead event loop is spinning");
    }
    advance_to(next);
  }
  // Burn partial work down to exactly `t` so a later lookahead (or sync)
  // resumes from a consistent fluid state.
  if (t > now_ && (!resident_.empty() || !copies_.empty())) advance_to(t);
  host_time_ = saved_host;
}

SimTime SimDevice::peek_next_event() {
  int spins = 0;
  while (start_ready_ops()) {
    if (++spins > 100000) {
      throw glp::InternalError("gpusim: peek_next_event is spinning");
    }
  }
  return next_event_time();
}

void SimDevice::synchronize_stream(StreamId stream) {
  GLP_REQUIRE(stream_live(stream), "synchronize on unknown stream " << stream);
  // The queue drains when ops *start*; resident/active work from this
  // stream must also have completed. Track via a sentinel event.
  const EventId ev = record_event(stream);
  synchronize_event(ev);
}

void SimDevice::synchronize_event(EventId event) {
  GLP_REQUIRE(event < events_.size() &&
                  events_[event].state != EventState::kUnknown,
              "synchronize on unknown event " << event);
  run_until([this, event] {
    return events_[event].state == EventState::kRecorded;
  });
}

void SimDevice::synchronize() {
  run_until([this] { return incomplete_.empty(); });
}

bool SimDevice::event_complete(EventId event) const {
  return event < events_.size() &&
         events_[event].state == EventState::kRecorded;
}

SimTime SimDevice::event_time(EventId event) const {
  GLP_REQUIRE(event < events_.size() &&
                  events_[event].state == EventState::kRecorded,
              "event " << event << " has not completed");
  return events_[event].time;
}

bool SimDevice::stream_idle(StreamId stream) const {
  GLP_REQUIRE(stream_live(stream), "query on unknown stream " << stream);
  if (!stream_state(stream).queue.empty()) return false;
  for (const Resident& k : resident_) {
    if (kernel_slab_[k.slot].op.stream == stream) return false;
  }
  for (const ActiveCopy& c : copies_) {
    if (c.op.stream == stream) return false;
  }
  return true;
}

}  // namespace gpusim
