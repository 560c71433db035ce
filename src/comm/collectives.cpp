#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "comm/wire.hpp"
#include "common/check.hpp"

namespace comm {

namespace {

/// Chunk c of a `count`-element range split n ways: [lo, hi).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t count, int n,
                                                int c) {
  const auto lo = static_cast<std::size_t>(
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(c) /
      static_cast<std::uint64_t>(n));
  const auto hi = static_cast<std::size_t>(
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(c + 1) /
      static_cast<std::uint64_t>(n));
  return {lo, hi};
}

void push_transfer(CollectiveProgram& prog, int src, int dst, std::size_t lo,
                   std::size_t hi, bool accumulate, int wave) {
  if (hi <= lo) return;  // never emit empty-segment transfers
  CollectiveTransfer t;
  t.src = src;
  t.dst = dst;
  t.lo = lo;
  t.hi = hi;
  t.accumulate = accumulate;
  t.wave = wave;
  prog.transfers.push_back(t);
}

/// Ring reduce-scatter over `devs` on [base, base+cnt): g-1 waves. At
/// step s member i forwards chunk (i-s)%g to its successor, which
/// accumulates. Leaves member (c+g-1)%g owning chunk c's full sum.
void append_ring_rs(CollectiveProgram& prog, const std::vector<int>& devs,
                    std::size_t base, std::size_t cnt, int& wave) {
  const int g = static_cast<int>(devs.size());
  for (int s = 0; s < g - 1; ++s, ++wave) {
    for (int i = 0; i < g; ++i) {
      const int chunk = (i - s + g) % g;
      const auto [lo, hi] = chunk_range(cnt, g, chunk);
      push_transfer(prog, devs[static_cast<std::size_t>(i)],
                    devs[static_cast<std::size_t>((i + 1) % g)], base + lo,
                    base + hi, /*accumulate=*/true, wave);
    }
  }
}

/// Ring all-gather over `devs` on [base, base+cnt): g-1 waves. At step s
/// member i forwards final chunk (i+1-s)%g (owner mapping matches
/// append_ring_rs) and its successor overwrites.
void append_ring_ag(CollectiveProgram& prog, const std::vector<int>& devs,
                    std::size_t base, std::size_t cnt, int& wave) {
  const int g = static_cast<int>(devs.size());
  for (int s = 0; s < g - 1; ++s, ++wave) {
    for (int i = 0; i < g; ++i) {
      const int chunk = (i + 1 - s + 2 * g) % g;
      const auto [lo, hi] = chunk_range(cnt, g, chunk);
      push_transfer(prog, devs[static_cast<std::size_t>(i)],
                    devs[static_cast<std::size_t>((i + 1) % g)], base + lo,
                    base + hi, /*accumulate=*/false, wave);
    }
  }
}

/// Recursive halving/doubling all-reduce over `devs` on [base,
/// base+cnt). Non-power-of-two sizes fold: the r = m - p extra members
/// first add their whole vector into a core member (one wave) and
/// receive the finished vector at the end (one wave); the p-member core
/// runs log2(p) halving waves (accumulate) and log2(p) doubling waves
/// (overwrite).
void append_tree(CollectiveProgram& prog, const std::vector<int>& devs,
                 std::size_t base, std::size_t cnt, int& wave) {
  const int m = static_cast<int>(devs.size());
  GLP_CHECK(m >= 2);
  int p = 1;
  while (p * 2 <= m) p *= 2;
  const int r = m - p;

  if (r > 0) {
    for (int e = 0; e < r; ++e) {
      push_transfer(prog, devs[static_cast<std::size_t>(p + e)],
                    devs[static_cast<std::size_t>(e)], base, base + cnt,
                    /*accumulate=*/true, wave);
    }
    ++wave;
  }

  // Per-core-member owned range; partners always hold identical ranges
  // (they share every earlier round's keep-low/keep-high decision).
  std::vector<std::size_t> lo(static_cast<std::size_t>(p), base);
  std::vector<std::size_t> hi(static_cast<std::size_t>(p), base + cnt);
  int rounds = 0;
  for (int q = p; q > 1; q /= 2) ++rounds;

  std::vector<int> dist_of_round(static_cast<std::size_t>(rounds));
  for (int k = 0; k < rounds; ++k) dist_of_round[static_cast<std::size_t>(k)] = p >> (k + 1);

  for (int k = 0; k < rounds; ++k, ++wave) {
    const int dist = dist_of_round[static_cast<std::size_t>(k)];
    for (int i = 0; i < p; ++i) {
      const int j = i ^ dist;
      if (i > j) continue;
      const std::size_t a = static_cast<std::size_t>(i);
      const std::size_t b = static_cast<std::size_t>(j);
      const std::size_t mid = lo[a] + (hi[a] - lo[a]) / 2;
      // Lower partner keeps [lo, mid), upper keeps [mid, hi).
      push_transfer(prog, devs[a], devs[b], mid, hi[a], /*accumulate=*/true,
                    wave);
      push_transfer(prog, devs[b], devs[a], lo[a], mid, /*accumulate=*/true,
                    wave);
      hi[a] = mid;
      lo[b] = mid;
    }
  }
  for (int k = rounds - 1; k >= 0; --k, ++wave) {
    const int dist = dist_of_round[static_cast<std::size_t>(k)];
    for (int i = 0; i < p; ++i) {
      const int j = i ^ dist;
      if (i > j) continue;
      const std::size_t a = static_cast<std::size_t>(i);
      const std::size_t b = static_cast<std::size_t>(j);
      push_transfer(prog, devs[a], devs[b], lo[a], hi[a],
                    /*accumulate=*/false, wave);
      push_transfer(prog, devs[b], devs[a], lo[b], hi[b],
                    /*accumulate=*/false, wave);
      const std::size_t nlo = std::min(lo[a], lo[b]);
      const std::size_t nhi = std::max(hi[a], hi[b]);
      lo[a] = lo[b] = nlo;
      hi[a] = hi[b] = nhi;
    }
  }

  if (r > 0) {
    for (int e = 0; e < r; ++e) {
      push_transfer(prog, devs[static_cast<std::size_t>(e)],
                    devs[static_cast<std::size_t>(p + e)], base, base + cnt,
                    /*accumulate=*/false, wave);
    }
    ++wave;
  }
}

/// Uncovered sub-intervals of one transfer's range while its producer
/// scan walks backward through the program. A producer claims the part
/// of its write that intersects a gap; the scan for that device stops
/// once no gaps remain.
struct GapSet {
  std::vector<std::pair<std::size_t, std::size_t>> gaps;

  explicit GapSet(std::size_t lo, std::size_t hi) { gaps.push_back({lo, hi}); }
  bool empty() const { return gaps.empty(); }

  /// True iff [lo, hi) intersects a remaining gap; the intersection is
  /// carved out of the gap set.
  bool claim(std::size_t lo, std::size_t hi) {
    bool hit = false;
    std::vector<std::pair<std::size_t, std::size_t>> next;
    next.reserve(gaps.size() + 1);
    for (const auto& g : gaps) {
      if (lo >= g.second || hi <= g.first) {
        next.push_back(g);
        continue;
      }
      hit = true;
      if (g.first < lo) next.push_back({g.first, lo});
      if (hi < g.second) next.push_back({hi, g.second});
    }
    gaps.swap(next);
    return hit;
  }
};

/// Fills src_deps/dst_deps: walking backward from each transfer, every
/// earlier transfer (same piece) that wrote a not-yet-claimed part of
/// this transfer's range on its source (the payload's producers) or
/// destination (the value the functor accumulates into / must not
/// overwrite early) becomes a dependency. Program order is wave-major,
/// so "earlier" is causal order. Each scan stops once the newest
/// producers jointly cover the range: any older writer to a covered
/// sub-range is itself a (transitive) dependency of the producer that
/// claimed it, so waiting for the claimants orders the whole history.
void compute_deps(std::vector<CollectiveTransfer>& ts, std::size_t begin,
                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    CollectiveTransfer& t = ts[i];
    GapSet src_gaps(t.lo, t.hi);
    GapSet dst_gaps(t.lo, t.hi);
    for (std::size_t jj = i; jj > begin; --jj) {
      const std::size_t j = jj - 1;
      const CollectiveTransfer& w = ts[j];
      if (w.lo >= t.hi || w.hi <= t.lo) continue;  // disjoint ranges
      if (!src_gaps.empty() && w.dst == t.src && src_gaps.claim(w.lo, w.hi)) {
        t.src_deps.push_back(static_cast<std::int32_t>(j));
      }
      if (!dst_gaps.empty() && w.dst == t.dst && dst_gaps.claim(w.lo, w.hi)) {
        t.dst_deps.push_back(static_cast<std::int32_t>(j));
      }
      if (src_gaps.empty() && dst_gaps.empty()) break;
    }
  }
}

}  // namespace

const char* to_string(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kRing: return "ring";
    case CollectiveAlgo::kTree: return "tree";
    case CollectiveAlgo::kHier: return "hier";
  }
  return "?";
}

const char* to_string(CollectiveChoice choice) {
  switch (choice) {
    case CollectiveChoice::kAuto: return "auto";
    case CollectiveChoice::kRing: return "ring";
    case CollectiveChoice::kTree: return "tree";
    case CollectiveChoice::kHier: return "hier";
  }
  return "?";
}

const char* to_string(WireFormat wire) {
  return wire == WireFormat::kFp16 ? "fp16" : "fp32";
}

std::optional<CollectiveChoice> parse_collective(const std::string& s) {
  if (s == "auto") return CollectiveChoice::kAuto;
  if (s == "ring") return CollectiveChoice::kRing;
  if (s == "tree") return CollectiveChoice::kTree;
  if (s == "hier") return CollectiveChoice::kHier;
  return std::nullopt;
}

bool CollectiveCostModel::feasible(CollectiveAlgo algo, int devices,
                                   gpusim::LinkTopology topology) {
  switch (algo) {
    case CollectiveAlgo::kRing:
      return devices >= 1;
    case CollectiveAlgo::kTree:
      // Halving/doubling pairs non-neighbour devices; only the shared
      // PCIe channel carries arbitrary pairs.
      return topology == gpusim::LinkTopology::kPcieHost && devices >= 2;
    case CollectiveAlgo::kHier:
      return topology == gpusim::LinkTopology::kPcieHost &&
             hier_group(devices) > 0;
  }
  return false;
}

int CollectiveCostModel::hier_group(int n) {
  if (n < 4) return 0;
  for (int f = 2; f * f <= n; ++f) {
    if (n % f == 0) return f;
  }
  return 0;  // prime: no two-level split
}

double CollectiveCostModel::predict_ns(CollectiveAlgo algo, std::size_t count,
                                       WireFormat wire) const {
  if (!feasible(algo, devices, topology)) {
    return std::numeric_limits<double>::infinity();
  }
  if (devices <= 1 || count == 0) return 0.0;
  const CollectiveProgram prog = build_collective_program(algo, devices, count);
  if (prog.transfers.empty()) return 0.0;
  const std::size_t eb = wire_bytes(wire);
  const double bw = props.bytes_per_ns();
  // Wave-synchronous accounting: per wave, one latency term plus the
  // serialized bytes of the busiest channel (PCIe: all transfers share
  // channel 0; NVLink: per-neighbour channels drain concurrently).
  double total = 0.0;
  int w = 0;
  std::size_t i = 0;
  while (i < prog.transfers.size()) {
    std::size_t wave_end = i;
    std::vector<std::size_t> per_channel;
    std::size_t shared = 0;
    while (wave_end < prog.transfers.size() &&
           prog.transfers[wave_end].wave == prog.transfers[i].wave) {
      const CollectiveTransfer& t = prog.transfers[wave_end];
      const std::size_t bytes = (t.hi - t.lo) * eb;
      if (topology == gpusim::LinkTopology::kPcieHost) {
        shared += bytes;
      } else {
        // One directed channel per (src -> neighbour) pair.
        per_channel.push_back(bytes);
      }
      ++wave_end;
    }
    double busiest = static_cast<double>(shared);
    for (std::size_t b : per_channel)
      busiest = std::max(busiest, static_cast<double>(b));
    total += props.latency_ns + busiest / bw;
    ++w;
    i = wave_end;
  }
  (void)w;
  return total;
}

CollectiveAlgo CollectiveCostModel::choose(std::size_t count,
                                           WireFormat wire) const {
  CollectiveAlgo best = CollectiveAlgo::kRing;
  double best_ns = predict_ns(best, count, wire);
  for (CollectiveAlgo algo : {CollectiveAlgo::kTree, CollectiveAlgo::kHier}) {
    const double ns = predict_ns(algo, count, wire);
    if (ns < best_ns) {
      best = algo;
      best_ns = ns;
    }
  }
  return best;
}

CollectiveProgram build_collective_program(CollectiveAlgo algo, int devices,
                                           std::size_t count) {
  CollectiveProgram prog;
  prog.algo = algo;
  prog.devices = devices;
  prog.count = count;
  if (devices <= 1 || count == 0) return prog;

  std::vector<int> all(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) all[static_cast<std::size_t>(d)] = d;

  int wave = 0;
  switch (algo) {
    case CollectiveAlgo::kRing: {
      append_ring_rs(prog, all, 0, count, wave);
      append_ring_ag(prog, all, 0, count, wave);
      break;
    }
    case CollectiveAlgo::kTree: {
      append_tree(prog, all, 0, count, wave);
      break;
    }
    case CollectiveAlgo::kHier: {
      const int g = CollectiveCostModel::hier_group(devices);
      GLP_CHECK_MSG(g > 0, "hier needs composite device count >= 4");
      const int groups = devices / g;
      // Phase 1: intra-group ring reduce-scatter, all groups in the
      // same waves.
      const int wave0 = wave;
      for (int q = 0; q < groups; ++q) {
        std::vector<int> group(static_cast<std::size_t>(g));
        for (int m = 0; m < g; ++m)
          group[static_cast<std::size_t>(m)] = q * g + m;
        int w = wave0;
        append_ring_rs(prog, group, 0, count, w);
        wave = w;
      }
      // Phase 2: per chunk, tree all-reduce among its per-group owners
      // (member (c+g-1)%g of each group), concurrently in shared waves.
      const int wave1 = wave;
      for (int c = 0; c < g; ++c) {
        const auto [lo, hi] = chunk_range(count, g, c);
        if (hi <= lo) continue;
        std::vector<int> owners(static_cast<std::size_t>(groups));
        for (int q = 0; q < groups; ++q)
          owners[static_cast<std::size_t>(q)] = q * g + (c + g - 1) % g;
        int w = wave1;
        append_tree(prog, owners, lo, hi - lo, w);
        wave = std::max(wave, w);
      }
      // Phase 3: intra-group ring all-gather (owner mapping matches
      // phase 1's reduce-scatter).
      const int wave2 = wave;
      for (int q = 0; q < groups; ++q) {
        std::vector<int> group(static_cast<std::size_t>(g));
        for (int m = 0; m < g; ++m)
          group[static_cast<std::size_t>(m)] = q * g + m;
        int w = wave2;
        append_ring_ag(prog, group, 0, count, w);
        wave = w;
      }
      // Transfers were appended group-major; re-establish wave-major
      // program order (stable: preserves intra-wave determinism).
      std::stable_sort(prog.transfers.begin(), prog.transfers.end(),
                       [](const CollectiveTransfer& a,
                          const CollectiveTransfer& b) {
                         return a.wave < b.wave;
                       });
      break;
    }
  }
  prog.waves = wave;
  compute_deps(prog.transfers, 0, prog.transfers.size());
  return prog;
}

CollectiveProgram plan_collective(int devices, gpusim::LinkTopology topology,
                                  const gpusim::LinkProps& props,
                                  const CollectiveOptions& options,
                                  std::size_t count) {
  CollectiveCostModel cost{devices, topology, props};
  CollectiveAlgo algo = CollectiveAlgo::kRing;
  switch (options.collective) {
    case CollectiveChoice::kAuto:
      algo = cost.choose(count, options.wire);
      break;
    case CollectiveChoice::kRing:
      algo = CollectiveAlgo::kRing;
      break;
    case CollectiveChoice::kTree:
      algo = CollectiveAlgo::kTree;
      break;
    case CollectiveChoice::kHier:
      algo = CollectiveAlgo::kHier;
      break;
  }
  // An explicitly requested but infeasible algorithm (tree/hier on the
  // NVLink ring, hier on prime/small fleets) degrades to the best
  // feasible one instead of failing — the CLI stays topology-agnostic.
  if (!CollectiveCostModel::feasible(algo, devices, topology)) {
    algo = cost.choose(count, options.wire);
  }

  // Chunk pipelining: split into pieces of at most pipeline_chunk_bytes
  // wire bytes, each an independent program over a disjoint range.
  int pieces = 1;
  if (options.pipeline_chunk_bytes > 0 && count > 0) {
    const std::size_t total = count * wire_bytes(options.wire);
    pieces = static_cast<int>(
        (total + options.pipeline_chunk_bytes - 1) / options.pipeline_chunk_bytes);
    pieces = std::max(1, std::min<int>(pieces, static_cast<int>(
                                                   std::min<std::size_t>(
                                                       count, 64))));
  }

  if (pieces == 1) {
    CollectiveProgram prog = build_collective_program(algo, devices, count);
    prog.pieces = 1;
    return prog;
  }

  CollectiveProgram merged;
  merged.algo = algo;
  merged.devices = devices;
  merged.count = count;
  merged.pieces = pieces;
  for (int j = 0; j < pieces; ++j) {
    const auto [plo, phi] = chunk_range(count, pieces, j);
    if (phi <= plo) continue;
    CollectiveProgram piece = build_collective_program(algo, devices, phi - plo);
    const int offset = static_cast<int>(merged.transfers.size());
    for (CollectiveTransfer t : piece.transfers) {
      t.lo += plo;
      t.hi += plo;
      t.piece = j;
      for (std::int32_t& d : t.src_deps) d += offset;
      for (std::int32_t& d : t.dst_deps) d += offset;
      merged.transfers.push_back(t);
    }
    merged.waves = std::max(merged.waves, piece.waves);
  }
  return merged;
}

void reference_collective_allreduce(const CollectiveProgram& program,
                                    const std::vector<float*>& grads,
                                    std::size_t count, WireFormat wire) {
  GLP_REQUIRE(static_cast<int>(grads.size()) == program.devices,
              "reference replay: one gradient array per device");
  GLP_REQUIRE(count == program.count, "reference replay: count mismatch");
  const bool fp16 = wire == WireFormat::kFp16;
  std::vector<float> staged;
  for (const CollectiveTransfer& t : program.transfers) {
    float* src = grads[static_cast<std::size_t>(t.src)];
    float* dst = grads[static_cast<std::size_t>(t.dst)];
    const std::size_t n = t.hi - t.lo;
    staged.resize(n);
    if (fp16 && !t.accumulate) {
      // Quantize the fully-reduced source range in place before its
      // all-gather send (idempotent on re-sends), exactly as the
      // scheduled executor does — every replica ends bit-identical.
      for (std::size_t k = 0; k < n; ++k)
        src[t.lo + k] = quantize_fp16(src[t.lo + k]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      staged[k] = fp16 ? quantize_fp16(src[t.lo + k]) : src[t.lo + k];
    }
    if (t.accumulate) {
      for (std::size_t k = 0; k < n; ++k) dst[t.lo + k] += staged[k];
    } else {
      for (std::size_t k = 0; k < n; ++k) dst[t.lo + k] = staged[k];
    }
  }
}

CollectiveEngine::CollectiveEngine(scuda::Fleet& fleet,
                                   CollectiveOptions options)
    : fleet_(&fleet), options_(options) {
  lane_count_ = std::max(1, options_.lanes);
  cost_model_ = CollectiveCostModel{fleet.size(), fleet.links().topology(),
                                    fleet.links().props()};
  lanes_.reserve(static_cast<std::size_t>(fleet.size() * lane_count_));
  for (int d = 0; d < fleet.size(); ++d) {
    scuda::Context& ctx = fleet.device(d);
    for (int l = 0; l < lane_count_; ++l) {
      try {
        lanes_.push_back(
            scuda::Stream::create(ctx, /*priority=*/0, /*non_blocking=*/true));
      } catch (const scuda::StreamCreateFailed&) {
        // Injected fault: fall back to the default stream for this lane.
        // Receives then serialize with compute — timing degrades,
        // numerics are identical for every algorithm.
        lanes_.push_back(scuda::Stream(ctx));
      }
    }
  }
  channel_free_.assign(
      static_cast<std::size_t>(fleet.links().channel_count()), 0.0);
}

bool CollectiveEngine::fallback(int d) const {
  for (int l = 0; l < lane_count_; ++l) {
    if (lanes_[static_cast<std::size_t>(d * lane_count_ + l)].is_default())
      return true;
  }
  return false;
}

const CollectiveProgram& CollectiveEngine::program_for(std::size_t count) {
  for (auto& [c, prog] : programs_) {
    if (c == count) return prog;
  }
  programs_.emplace_back(
      count, plan_collective(fleet_->size(), fleet_->links().topology(),
                             fleet_->links().props(), options_, count));
  return programs_.back().second;
}

CollectiveAlgo CollectiveEngine::algo_for(std::size_t count) {
  return program_for(count).algo;
}

void CollectiveEngine::reset() {
  staging_f32_.clear();
  staging_f16_.clear();
  transfers_.clear();
}

float* CollectiveEngine::stage_f32(std::size_t count) {
  staging_f32_.push_back(std::make_unique<float[]>(count));
  return staging_f32_.back().get();
}

std::uint16_t* CollectiveEngine::stage_f16(std::size_t count) {
  staging_f16_.push_back(std::make_unique<std::uint16_t[]>(count));
  return staging_f16_.back().get();
}

std::vector<gpusim::EventId> CollectiveEngine::reduce(
    const std::vector<float*>& flat, std::size_t count,
    const std::vector<gpusim::SimTime>& ready_ns, bool numeric) {
  const int n = fleet_->size();
  GLP_REQUIRE(static_cast<int>(flat.size()) == n &&
                  static_cast<int>(ready_ns.size()) == n,
              "reduce: one flat buffer and ready time per device");

  // The schedule must never land in a device's past. A profiling-mode
  // scheduler scope synchronizes its device mid-backward, which drives
  // that device's clock beyond the bucket-ready event timestamps; the
  // engine clamps a peer copy's completion to its own clock, so a copy
  // scheduled in the past would run its receive functor AFTER the
  // staging snapshot below reads the destination buffer. Floor every
  // ready time at the owning device's current clock instead — times
  // already in the future are unchanged, so overlap is preserved.
  std::vector<gpusim::SimTime> ready0(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    ready0[static_cast<std::size_t>(d)] =
        std::max(ready_ns[static_cast<std::size_t>(d)],
                 fleet_->device(d).device().device_now());
  }

  std::vector<gpusim::EventId> done(static_cast<std::size_t>(n));
  auto idle_done = [&](int d) {
    // Nothing to receive (1-device fleet, empty bucket, or a bucket so
    // small this device's segments are all empty): done the moment the
    // local gradient is ready. No zero-byte link messages are issued.
    gpusim::DeviceEngine& dev = fleet_->device(d).device();
    return dev.record_event_at(lane_stream(d, 0),
                               std::max(ready0[static_cast<std::size_t>(d)],
                                        dev.device_now()));
  };

  const CollectiveProgram& prog = program_for(count);
  if (n == 1 || prog.transfers.empty()) {
    for (int d = 0; d < n; ++d) done[static_cast<std::size_t>(d)] = idle_done(d);
    return done;
  }

  gpusim::LinkModel& links = fleet_->links();
  const std::size_t eb = wire_bytes(options_.wire);
  const std::size_t T = prog.transfers.size();

  // Register the whole program as one dependency-aware batch: a
  // transfer's request is floored by its source's pack time (first
  // sends), the receiver's pack time (accumulates read the local term),
  // the cross-bucket channel FIFO, and — via begin_after — the
  // completion of the transfers that produced its payload and its
  // destination value. Within the batch, waves of independent pipeline
  // pieces overlap freely under exact PS.
  std::vector<std::uint64_t> link_id(T);
  for (std::size_t i = 0; i < T; ++i) {
    const CollectiveTransfer& t = prog.transfers[i];
    const int ch = links.channel_for(t.src, t.dst);
    gpusim::SimTime floor = channel_free_[static_cast<std::size_t>(ch)];
    floor = std::max(floor, ready0[static_cast<std::size_t>(t.src)]);
    if (t.accumulate) {
      floor = std::max(floor, ready0[static_cast<std::size_t>(t.dst)]);
    }
    std::vector<std::uint64_t> deps;
    deps.reserve(t.src_deps.size() + t.dst_deps.size());
    for (std::int32_t d : t.src_deps)
      deps.push_back(link_id[static_cast<std::size_t>(d)]);
    for (std::int32_t d : t.dst_deps)
      deps.push_back(link_id[static_cast<std::size_t>(d)]);
    link_id[i] =
        links.begin_after(t.src, t.dst, (t.hi - t.lo) * eb, floor, deps);
  }
  links.finalize_all();
  std::vector<gpusim::TransferRecord> recs = links.take_completed();
  GLP_CHECK(recs.size() == T);

  std::vector<const gpusim::TransferRecord*> rec_of(T, nullptr);
  for (const auto& r : recs) {
    for (std::size_t i = 0; i < T; ++i) {
      if (link_id[i] == r.id) {
        rec_of[i] = &r;
        break;
      }
    }
    channel_free_[static_cast<std::size_t>(r.channel)] = std::max(
        channel_free_[static_cast<std::size_t>(r.channel)], r.end_ns);
  }
  for (std::size_t i = 0; i < T; ++i) GLP_CHECK(rec_of[i] != nullptr);

  // Submit receives in global (start, id) order: every lane sees its
  // peer copies in start order, and a transfer's producers are always
  // submitted (and their markers recorded) before it.
  std::vector<std::size_t> order(T);
  for (std::size_t i = 0; i < T; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rec_of[a]->start_ns != rec_of[b]->start_ns)
      return rec_of[a]->start_ns < rec_of[b]->start_ns;
    return rec_of[a]->id < rec_of[b]->id;
  });

  constexpr gpusim::EventId kNoMarker =
      std::numeric_limits<gpusim::EventId>::max();
  std::vector<gpusim::EventId> marker(T, kNoMarker);
  struct Last {
    gpusim::SimTime end_ns = -1.0;
    gpusim::EventId marker = kNoMarker;
  };
  // Latest receive per (device, lane): the per-device done event joins
  // every lane the device actually used.
  std::vector<Last> last(static_cast<std::size_t>(n * lane_count_));

  const bool fp16 = options_.wire == WireFormat::kFp16;
  for (std::size_t oi : order) {
    const CollectiveTransfer& t = prog.transfers[oi];
    const gpusim::TransferRecord* rec = rec_of[oi];
    const int lane = t.piece % lane_count_;
    const std::size_t cnt = t.hi - t.lo;
    gpusim::DeviceEngine::WorkFn work;
    if (numeric) {
      // Snapshot the source range at issue time. When the payload was
      // produced by earlier receives, drive the source device past
      // every producer's marker event first. Event-based (not a
      // time-based advance): an op can complete later than the link
      // schedule says — a fallback lane serializes receives behind the
      // default-stream barrier — and the snapshot must chase the
      // functors, wherever they land.
      for (std::int32_t dep : t.src_deps) {
        advance_until_event(fleet_->device(t.src).device(),
                            marker[static_cast<std::size_t>(dep)]);
      }
      float* src = flat[static_cast<std::size_t>(t.src)] + t.lo;
      float* dst = flat[static_cast<std::size_t>(t.dst)] + t.lo;
      if (fp16) {
        if (!t.accumulate) {
          // First (and idempotently every) all-gather send of a reduced
          // range: quantize the source in place so the sender's replica
          // matches what every receiver reconstructs from the wire.
          for (std::size_t k = 0; k < cnt; ++k) src[k] = quantize_fp16(src[k]);
        }
        std::uint16_t* staged = stage_f16(cnt);
        for (std::size_t k = 0; k < cnt; ++k)
          staged[k] = float32_to_float16(src[k]);
        if (t.accumulate) {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k)
              dst[k] += float16_to_float32(staged[k]);
          };
        } else {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k)
              dst[k] = float16_to_float32(staged[k]);
          };
        }
      } else {
        float* staged = stage_f32(cnt);
        std::memcpy(staged, src, cnt * sizeof(float));
        if (t.accumulate) {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k) dst[k] += staged[k];
          };
        } else {
          work = [dst, staged, cnt] {
            std::memcpy(dst, staged, cnt * sizeof(float));
          };
        }
      }
    }
    gpusim::DeviceEngine& dst_dev = fleet_->device(t.dst).device();
    const gpusim::StreamId stream = lane_stream(t.dst, lane);
    dst_dev.memcpy_peer(stream, cnt * eb, t.src, rec->start_ns, rec->end_ns,
                        std::move(work));
    // Marker right behind the receive in the lane's FIFO: it completes
    // when the receive's functor has actually run, which is what later
    // snapshots (and the caller's unpack) gate on.
    marker[oi] = dst_dev.record_event_at(stream, rec->end_ns);
    Last& L = last[static_cast<std::size_t>(t.dst * lane_count_ + lane)];
    if (rec->end_ns > L.end_ns) {
      L.end_ns = rec->end_ns;
      L.marker = marker[oi];
    }
  }

  // Per-device done event: join the last marker of every lane the
  // device received on (lanes complete independently; the unpack must
  // wait for all of them).
  for (int d = 0; d < n; ++d) {
    int used = 0;
    int only_lane = -1;
    gpusim::SimTime max_end = 0.0;
    for (int l = 0; l < lane_count_; ++l) {
      const Last& L = last[static_cast<std::size_t>(d * lane_count_ + l)];
      if (L.marker == kNoMarker) continue;
      ++used;
      only_lane = l;
      max_end = std::max(max_end, L.end_ns);
    }
    if (used == 0) {
      done[static_cast<std::size_t>(d)] = idle_done(d);
    } else if (used == 1) {
      done[static_cast<std::size_t>(d)] =
          last[static_cast<std::size_t>(d * lane_count_ + only_lane)].marker;
    } else {
      gpusim::DeviceEngine& dev = fleet_->device(d).device();
      const gpusim::StreamId join = lane_stream(d, 0);
      for (int l = 0; l < lane_count_; ++l) {
        const Last& L = last[static_cast<std::size_t>(d * lane_count_ + l)];
        if (L.marker == kNoMarker) continue;
        dev.wait_event(join, L.marker);
      }
      done[static_cast<std::size_t>(d)] = dev.record_event_at(join, max_end);
    }
  }

  transfers_.insert(transfers_.end(), std::make_move_iterator(recs.begin()),
                    std::make_move_iterator(recs.end()));
  return done;
}

}  // namespace comm
