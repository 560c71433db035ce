#include "gpusim/interconnect.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace gpusim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual-byte tolerance: after draining fluid up to an exactly
/// computed completion instant the finishing transfer's remainder is
/// zero up to rounding; anything under a micro-byte counts as done.
constexpr double kEpsBytes = 1e-6;

}  // namespace

LinkModel::LinkModel(int devices, LinkTopology topology, LinkProps props)
    : devices_(devices), topology_(topology), props_(props) {
  GLP_CHECK(devices >= 1);
  GLP_CHECK(props.bandwidth_gbps > 0.0);
  GLP_CHECK(props.latency_ns >= 0.0);
  channel_count_ = topology == LinkTopology::kPcieHost
                       ? 1
                       : 2 * devices;  // forward + backward per device
}

int LinkModel::channel_for(int src, int dst) const {
  GLP_CHECK(src >= 0 && src < devices_);
  GLP_CHECK(dst >= 0 && dst < devices_);
  GLP_CHECK(src != dst);
  if (topology_ == LinkTopology::kPcieHost) return 0;
  // Ring: channel `src` is the directed forward link src -> src+1,
  // channel `devices_ + src` the backward link src -> src-1. With two
  // devices both neighbours coincide; forward wins deterministically.
  if (dst == (src + 1) % devices_) return src;
  GLP_CHECK_MSG(dst == (src + devices_ - 1) % devices_,
                "nvlink ring carries neighbour traffic only");
  return devices_ + src;
}

std::uint64_t LinkModel::begin(int src, int dst, std::size_t bytes,
                               SimTime request_ns) {
  return begin_after(src, dst, bytes, request_ns, 0, 0);
}

std::uint64_t LinkModel::begin_after(int src, int dst, std::size_t bytes,
                                     SimTime request_floor_ns,
                                     std::uint64_t dep_a,
                                     std::uint64_t dep_b) {
  std::vector<std::uint64_t> deps;
  if (dep_a != 0) deps.push_back(dep_a);
  if (dep_b != 0) deps.push_back(dep_b);
  return begin_after(src, dst, bytes, request_floor_ns, deps);
}

std::uint64_t LinkModel::begin_after(int src, int dst, std::size_t bytes,
                                     SimTime request_floor_ns,
                                     const std::vector<std::uint64_t>& deps) {
  const int channel = channel_for(src, dst);
  Pending p;
  p.rec.id = next_id_++;
  p.rec.src = src;
  p.rec.dst = dst;
  p.rec.bytes = bytes;
  p.rec.channel = channel;
  p.remaining = static_cast<double>(bytes);
  p.floor_ns = request_floor_ns;
  // Dependencies on transfers finalized in an earlier batch fold into
  // the floor immediately; same-batch dependencies resolve during
  // finalize_all.
  for (std::uint64_t dep : deps) {
    if (dep == 0) continue;
    auto it = end_ns_.find(dep);
    if (it != end_ns_.end()) {
      p.floor_ns = std::max(p.floor_ns, it->second);
    } else {
      p.deps.push_back(dep);
    }
  }
  pending_.push_back(std::move(p));
  return next_id_ - 1;
}

SimTime LinkModel::end_of(std::uint64_t id) const {
  auto it = end_ns_.find(id);
  GLP_CHECK_MSG(it != end_ns_.end(), "end_of: transfer " << id
                                                         << " not finalized");
  return it->second;
}

void LinkModel::finalize_all() {
  if (pending_.empty()) return;
  const double bandwidth = props_.bytes_per_ns();

  // Same-batch dependency ids -> pending indices (and sanity: a dep must
  // be either already finalized — folded into the floor at begin — or a
  // member of this batch).
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i)
    by_id.emplace(pending_[i].rec.id, i);
  std::vector<std::vector<std::size_t>> dependents(pending_.size());
  std::vector<int> deps_left(pending_.size(), 0);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    for (std::uint64_t dep : pending_[i].deps) {
      auto it = by_id.find(dep);
      GLP_CHECK_MSG(it != by_id.end(),
                    "begin_after: dependency " << dep << " never registered");
      GLP_CHECK_MSG(it->second < i, "begin_after: dependency must precede");
      dependents[it->second].push_back(i);
      ++deps_left[i];
    }
  }

  auto release = [&](std::size_t i) {
    Pending& p = pending_[i];
    p.rec.request_ns = p.floor_ns;
    p.rec.start_ns = p.rec.request_ns + props_.latency_ns;
    p.released = true;
  };
  for (std::size_t i = 0; i < pending_.size(); ++i)
    if (deps_left[i] == 0) release(i);

  // Global event loop. Channels drain their PS fluid lazily — only when
  // an event (arrival or completion) lands on them — so a channel's
  // fluid history, and therefore every transfer's RateSegments, is
  // bit-identical to the original single-channel resolution whenever no
  // cross-channel dependencies exist.
  //
  // Within one directed (src, dst) pair the copy engine is a FIFO: one
  // message in flight at a time, the next admitted the instant its
  // predecessor's last byte lands (its latency overlaps the queue
  // wait). PS sharing applies across pairs on a channel, never within
  // one. This is what makes chunk pipelining pay: queued chunks of a
  // bucket stream back-to-back on the wire instead of advancing in PS
  // lockstep, hiding every inter-wave latency gap but the first.
  std::vector<std::vector<std::size_t>> active(
      static_cast<std::size_t>(channel_count_));
  std::vector<SimTime> ch_now(static_cast<std::size_t>(channel_count_), 0.0);
  const std::size_t pair_count =
      static_cast<std::size_t>(devices_) * static_cast<std::size_t>(devices_);
  std::vector<char> pair_busy(pair_count, 0);
  std::vector<SimTime> pair_free(pair_count, 0.0);
  auto pair_of = [&](const Pending& p) {
    return static_cast<std::size_t>(p.rec.src) *
               static_cast<std::size_t>(devices_) +
           static_cast<std::size_t>(p.rec.dst);
  };
  std::size_t done_count = 0;

  while (done_count < pending_.size()) {
    // Next arrival: earliest released-but-unstarted admission instant
    // max(start, pair free) over idle pairs (ties by id — registration
    // order — for determinism).
    SimTime arrival_t = kInf;
    for (const Pending& p : pending_) {
      if (!p.released || p.started) continue;
      const std::size_t pair = pair_of(p);
      if (pair_busy[pair]) continue;
      arrival_t =
          std::min(arrival_t, std::max(p.rec.start_ns, pair_free[pair]));
    }
    // Next completion over all channels.
    SimTime done_t = kInf;
    for (int ch = 0; ch < channel_count_; ++ch) {
      const auto& act = active[static_cast<std::size_t>(ch)];
      if (act.empty()) continue;
      double min_remaining = kInf;
      for (std::size_t idx : act)
        min_remaining = std::min(min_remaining, pending_[idx].remaining);
      done_t = std::min(done_t,
                        ch_now[static_cast<std::size_t>(ch)] +
                            min_remaining * static_cast<double>(act.size()) /
                                bandwidth);
    }
    const SimTime t = std::min(arrival_t, done_t);
    GLP_CHECK_MSG(t < kInf,
                  "link finalize stalled: dependency cycle or unreleased "
                  "transfers");

    // Completions first at a shared instant: the finisher got its old
    // share up to `t`; a coincident arrival shares only afterwards.
    if (done_t <= arrival_t) {
      for (int ch = 0; ch < channel_count_; ++ch) {
        auto& act = active[static_cast<std::size_t>(ch)];
        if (act.empty()) continue;
        SimTime& now = ch_now[static_cast<std::size_t>(ch)];
        // Would this channel complete something at t? Drain only then,
        // so untouched channels keep their fluid history unsplit.
        double min_remaining = kInf;
        for (std::size_t idx : act)
          min_remaining = std::min(min_remaining, pending_[idx].remaining);
        const SimTime ch_done =
            now + min_remaining * static_cast<double>(act.size()) / bandwidth;
        if (ch_done > t) continue;
        if (t > now) {
          const double rate = bandwidth / static_cast<double>(act.size());
          const double moved = (t - now) * rate;
          for (std::size_t idx : act) {
            Pending& p = pending_[idx];
            p.remaining = std::max(0.0, p.remaining - moved);
            p.rec.segments.push_back(RateSegment{now, t, rate});
          }
        }
        now = t;
        // On a large clock a remainder above kEpsBytes can still finish
        // within one ulp of `now`; it must retire here too, or t stays at
        // `now` and the loop makes no progress.
        const double sharers = static_cast<double>(act.size());
        for (auto it = act.begin(); it != act.end();) {
          Pending& p = pending_[*it];
          if (p.remaining <= kEpsBytes ||
              now + p.remaining * sharers / bandwidth <= now) {
            p.remaining = 0.0;
            p.rec.end_ns = now;
            end_ns_.emplace(p.rec.id, now);
            const std::size_t pair = pair_of(p);
            pair_busy[pair] = 0;
            pair_free[pair] = std::max(pair_free[pair], now);
            for (std::size_t dep_idx : dependents[*it]) {
              Pending& d = pending_[dep_idx];
              d.floor_ns = std::max(d.floor_ns, now);
              if (--deps_left[dep_idx] == 0) release(dep_idx);
            }
            completed_.push_back(std::move(p.rec));
            ++done_count;
            it = act.erase(it);
          } else {
            ++it;
          }
        }
      }
    } else {
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        Pending& p = pending_[i];
        if (!p.released || p.started) continue;
        const std::size_t pair = pair_of(p);
        if (pair_busy[pair]) continue;
        if (std::max(p.rec.start_ns, pair_free[pair]) > t) continue;
        p.started = true;
        // A queued message's first byte lands when its predecessor on
        // the pair frees the engine; the wire-start reflects that.
        p.rec.start_ns = std::max(p.rec.start_ns, t);
        const int ch = p.rec.channel;
        SimTime& now = ch_now[static_cast<std::size_t>(ch)];
        auto& act = active[static_cast<std::size_t>(ch)];
        // Drain the joining channel up to the arrival instant.
        if (!act.empty() && t > now) {
          const double rate = bandwidth / static_cast<double>(act.size());
          const double moved = (t - now) * rate;
          for (std::size_t idx : act) {
            Pending& q = pending_[idx];
            q.remaining = std::max(0.0, q.remaining - moved);
            q.rec.segments.push_back(RateSegment{now, t, rate});
          }
        }
        now = std::max(now, t);
        if (p.remaining <= kEpsBytes) {
          // Zero-byte message: delivered after latency, no fluid needed.
          p.rec.end_ns = p.rec.start_ns;
          end_ns_.emplace(p.rec.id, p.rec.end_ns);
          for (std::size_t dep_idx : dependents[i]) {
            Pending& d = pending_[dep_idx];
            d.floor_ns = std::max(d.floor_ns, p.rec.end_ns);
            if (--deps_left[dep_idx] == 0) release(dep_idx);
          }
          completed_.push_back(std::move(p.rec));
          ++done_count;
        } else {
          pair_busy[pair] = 1;
          act.push_back(i);
        }
      }
    }
  }

  pending_.clear();
  std::sort(completed_.begin(), completed_.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
              return a.id < b.id;
            });
}

std::vector<TransferRecord> LinkModel::take_completed() {
  std::vector<TransferRecord> out;
  out.swap(completed_);
  return out;
}

}  // namespace gpusim
