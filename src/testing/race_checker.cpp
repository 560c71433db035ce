#include "testing/race_checker.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

namespace glpfuzz {

namespace {

// Simulated timestamps are doubles; comparisons tolerate accumulated
// floating-point noise well below any real event spacing.
constexpr double kEpsNs = 1e-3;

/// A kernel or copy record flattened to the fields the checker needs.
struct Op {
  std::uint64_t correlation_id = 0;
  gpusim::StreamId stream = gpusim::kDefaultStream;
  double submit_ns = 0.0;
  double start_ns = 0.0;
  double end_ns = 0.0;
  bool is_kernel = false;
  bool has_submit = false;  ///< CopyRecord does not record submit time
  const std::string* name = nullptr;
};

}  // namespace

const char* kind_name(RaceViolation::Kind kind) {
  switch (kind) {
    case RaceViolation::Kind::kDuplicateCorrelation: return "duplicate-correlation";
    case RaceViolation::Kind::kNonMonotonic: return "non-monotonic";
    case RaceViolation::Kind::kStreamFifo: return "stream-fifo";
    case RaceViolation::Kind::kDefaultBarrierBefore: return "default-barrier-before";
    case RaceViolation::Kind::kDefaultBarrierAfter: return "default-barrier-after";
    case RaceViolation::Kind::kConcurrencyCap: return "concurrency-cap";
    case RaceViolation::Kind::kDagOrderViolation: return "dag-order";
    case RaceViolation::Kind::kLinkOversubscribed: return "link-oversubscribed";
    case RaceViolation::Kind::kTransferAccounting: return "transfer-accounting";
  }
  return "unknown";
}

std::string RaceReport::to_string() const {
  std::ostringstream os;
  for (const RaceViolation& v : violations) {
    os << "[" << kind_name(v.kind) << "] corr=" << v.correlation_id
       << " stream=" << v.stream << " t=" << v.ts_ns << "ns: " << v.detail
       << "\n";
  }
  return os.str();
}

RaceReport check_timeline(const gpusim::Timeline& timeline,
                          const gpusim::DeviceProps& props) {
  RaceReport report;

  static const std::string kCopyName = "memcpy";
  std::vector<Op> ops;
  ops.reserve(timeline.size());
  for (const gpusim::KernelRecord& k : timeline.kernels()) {
    ops.push_back(Op{k.correlation_id, k.stream, k.submit_ns, k.start_ns,
                     k.end_ns, true, true, &k.name});
  }
  for (const gpusim::CopyRecord& c : timeline.copies()) {
    ops.push_back(Op{c.correlation_id, c.stream, 0.0, c.start_ns, c.end_ns,
                     false, false, &kCopyName});
  }

  // Correlation ids are assigned in host submission order, so sorting by
  // them reconstructs the program order every barrier invariant is
  // defined against.
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) {
              return a.correlation_id < b.correlation_id;
            });
  report.ops_checked = ops.size();

  auto flag = [&](RaceViolation::Kind kind, const Op& op, double ts,
                  const std::string& detail) {
    report.violations.push_back(
        RaceViolation{kind, op.correlation_id, op.stream, ts, detail});
  };

  // --- uniqueness + monotonicity ----------------------------------------
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i > 0 && op.correlation_id == ops[i - 1].correlation_id) {
      flag(RaceViolation::Kind::kDuplicateCorrelation, op, op.start_ns,
           "correlation id appears more than once");
    }
    if (op.end_ns < op.start_ns - kEpsNs ||
        (op.has_submit && op.start_ns < op.submit_ns - kEpsNs)) {
      std::ostringstream d;
      d << *op.name << ": submit=" << op.submit_ns << " start=" << op.start_ns
        << " end=" << op.end_ns;
      flag(RaceViolation::Kind::kNonMonotonic, op, op.start_ns, d.str());
    }
  }

  // --- FIFO + default-stream barrier (one pass in program order) --------
  std::unordered_map<gpusim::StreamId, const Op*> last_on_stream;
  const Op* max_end_op = nullptr;    // op with the latest end so far
  const Op* last_default = nullptr;  // last stream-0 op seen so far
  for (const Op& op : ops) {
    if (const Op* prev = last_on_stream[op.stream]) {
      if (op.start_ns < prev->end_ns - kEpsNs) {
        std::ostringstream d;
        d << *op.name << " started at " << op.start_ns
          << " before same-stream predecessor corr=" << prev->correlation_id
          << " ended at " << prev->end_ns;
        flag(RaceViolation::Kind::kStreamFifo, op, op.start_ns, d.str());
      }
    }
    if (op.stream == gpusim::kDefaultStream) {
      if (max_end_op && op.start_ns < max_end_op->end_ns - kEpsNs) {
        std::ostringstream d;
        d << *op.name << " on the default stream started at " << op.start_ns
          << " before earlier corr=" << max_end_op->correlation_id
          << " (stream " << max_end_op->stream << ") ended at "
          << max_end_op->end_ns;
        flag(RaceViolation::Kind::kDefaultBarrierBefore, op, op.start_ns,
             d.str());
      }
      last_default = &op;
    } else if (last_default && op.start_ns < last_default->end_ns - kEpsNs) {
      std::ostringstream d;
      d << *op.name << " started at " << op.start_ns
        << " before preceding default-stream corr="
        << last_default->correlation_id << " ended at "
        << last_default->end_ns;
      flag(RaceViolation::Kind::kDefaultBarrierAfter, op, op.start_ns,
           d.str());
    }
    last_on_stream[op.stream] = &op;
    if (!max_end_op || op.end_ns > max_end_op->end_ns) max_end_op = &op;
  }

  // --- concurrency cap (interval sweep over kernels only) ---------------
  // At equal timestamps, process ends before starts: a kernel admitted
  // exactly when another retires does not overlap it.
  struct Event {
    double ts;
    int delta;
    const Op* op;
  };
  std::vector<Event> events;
  for (const Op& op : ops) {
    if (!op.is_kernel) continue;
    events.push_back(Event{op.start_ns, +1, &op});
    events.push_back(Event{op.end_ns, -1, &op});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.delta < b.delta;
  });
  int resident = 0;
  for (const Event& e : events) {
    resident += e.delta;
    report.peak_concurrency = std::max(report.peak_concurrency, resident);
    if (e.delta > 0 && resident > props.max_concurrent_kernels) {
      std::ostringstream d;
      d << resident << " kernels resident at t=" << e.ts << " but device '"
        << props.name << "' allows " << props.max_concurrent_kernels;
      flag(RaceViolation::Kind::kConcurrencyCap, *e.op, e.ts, d.str());
    }
  }

  return report;
}

std::string OpScheduleReport::to_string() const {
  std::ostringstream os;
  for (const RaceViolation& v : violations) {
    os << "[" << kind_name(v.kind) << "] corr=" << v.correlation_id
       << " stream=" << v.stream << " t=" << v.ts_ns << "ns: " << v.detail
       << "\n";
  }
  return os.str();
}

OpScheduleReport check_op_schedule(
    const gpusim::Timeline& timeline,
    const std::vector<mc::NetDag::ScheduledOp>& ops) {
  OpScheduleReport report;

  // Attribute every kernel to the (single) op whose prefix it carries.
  struct Span {
    bool any = false;
    double min_start = 0.0;
    double max_end = 0.0;
    // Earliest-starting kernel, for violation reporting.
    std::uint64_t first_corr = 0;
    gpusim::StreamId first_stream = gpusim::kDefaultStream;
    const std::string* first_name = nullptr;
  };
  std::vector<Span> spans(ops.size());
  auto belongs = [](const std::string& name, const std::string& prefix) {
    if (prefix.empty()) return false;
    if (name.size() < prefix.size()) return false;
    if (name.compare(0, prefix.size(), prefix) != 0) return false;
    return name.size() == prefix.size() || name[prefix.size()] == '/';
  };
  for (const gpusim::KernelRecord& k : timeline.kernels()) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!belongs(k.name, ops[i].prefix)) continue;
      Span& s = spans[i];
      if (!s.any || k.start_ns < s.min_start) {
        s.first_corr = k.correlation_id;
        s.first_stream = k.stream;
        s.first_name = &k.name;
        s.min_start = s.any ? std::min(s.min_start, k.start_ns) : k.start_ns;
      }
      s.max_end = s.any ? std::max(s.max_end, k.end_ns) : k.end_ns;
      s.any = true;
      break;  // prefixes are per-layer-pass and thus disjoint
    }
  }
  for (const Span& s : spans) {
    if (s.any) ++report.ops_matched;
  }

  // Edge check: the consumer's earliest kernel start must not precede any
  // producer kernel's end. Vacuous when either side has no kernels.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!spans[i].any) continue;
    for (int d : ops[i].deps) {
      if (d < 0 || static_cast<std::size_t>(d) >= ops.size()) continue;
      if (!spans[static_cast<std::size_t>(d)].any) continue;
      ++report.edges_checked;
      const Span& prod = spans[static_cast<std::size_t>(d)];
      const Span& cons = spans[i];
      if (cons.min_start < prod.max_end - kEpsNs) {
        std::ostringstream det;
        det << "op '" << ops[i].prefix << "' (" << *cons.first_name
            << ") started at " << cons.min_start << " before producer op '"
            << ops[static_cast<std::size_t>(d)].prefix << "' ended at "
            << prod.max_end;
        report.violations.push_back(
            RaceViolation{RaceViolation::Kind::kDagOrderViolation,
                          cons.first_corr, cons.first_stream, cons.min_start,
                          det.str()});
      }
    }
  }

  // Op-level concurrency: how many op spans overlap at once. This is the
  // branch parallelism the DAG scheduler achieved — a report, not a race.
  struct Edge {
    double ts;
    int delta;
  };
  std::vector<Edge> sweep;
  for (const Span& s : spans) {
    if (!s.any) continue;
    sweep.push_back(Edge{s.min_start, +1});
    sweep.push_back(Edge{s.max_end, -1});
  }
  std::sort(sweep.begin(), sweep.end(), [](const Edge& a, const Edge& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.delta < b.delta;
  });
  int resident = 0;
  for (const Edge& e : sweep) {
    resident += e.delta;
    report.peak_op_concurrency = std::max(report.peak_op_concurrency, resident);
  }

  return report;
}

std::string FleetTransferReport::to_string() const {
  std::ostringstream os;
  for (const RaceViolation& v : violations) {
    os << "[" << kind_name(v.kind) << "] transfer=" << v.correlation_id
       << " channel=" << v.stream << " t=" << v.ts_ns << "ns: " << v.detail
       << "\n";
  }
  return os.str();
}

FleetTransferReport check_fleet_transfers(
    const std::vector<gpusim::TransferRecord>& transfers,
    const gpusim::LinkProps& props) {
  FleetTransferReport report;
  report.transfers_checked = transfers.size();
  const double bandwidth = props.bytes_per_ns();
  // Conservation tolerance: the PS fluid drain works in double bytes, so
  // residuals stay far below one byte even across many segments.
  constexpr double kEpsBytes = 1e-3;
  // Rate tolerance absorbs division noise when n transfers share B/n.
  const double eps_rate = bandwidth * 1e-9 + 1e-12;

  auto flag = [&](RaceViolation::Kind kind, const gpusim::TransferRecord& t,
                  double ts, const std::string& detail) {
    report.violations.push_back(RaceViolation{
        kind, t.id, static_cast<gpusim::StreamId>(t.channel), ts, detail});
  };

  // --- per-record sanity + conservation ---------------------------------
  for (const gpusim::TransferRecord& t : transfers) {
    if (t.start_ns < t.request_ns - kEpsNs || t.end_ns < t.start_ns - kEpsNs) {
      std::ostringstream d;
      d << "request=" << t.request_ns << " start=" << t.start_ns
        << " end=" << t.end_ns;
      flag(RaceViolation::Kind::kTransferAccounting, t, t.start_ns, d.str());
      continue;
    }
    double moved = 0.0;
    double cursor = t.start_ns;
    bool profile_ok = true;
    for (const gpusim::RateSegment& seg : t.segments) {
      // The PS fluid profile must tile [start, end] exactly: an active
      // transfer always holds a positive share, so gaps are as illegal
      // as overlaps.
      if (std::abs(seg.start_ns - cursor) > kEpsNs ||
          seg.end_ns < seg.start_ns || seg.end_ns > t.end_ns + kEpsNs ||
          seg.rate < 0.0) {
        std::ostringstream d;
        d << "segment [" << seg.start_ns << ", " << seg.end_ns << ") rate "
          << seg.rate << " leaves [" << cursor << ", " << t.end_ns << ")";
        flag(RaceViolation::Kind::kTransferAccounting, t, seg.start_ns,
             d.str());
        profile_ok = false;
        break;
      }
      moved += seg.rate * (seg.end_ns - seg.start_ns);
      cursor = seg.end_ns;
    }
    if (!profile_ok) continue;
    if (std::abs(cursor - t.end_ns) > kEpsNs) {
      std::ostringstream d;
      d << "rate profile stops at " << cursor << " short of end "
        << t.end_ns;
      flag(RaceViolation::Kind::kTransferAccounting, t, cursor, d.str());
      continue;
    }
    if (std::abs(moved - static_cast<double>(t.bytes)) > kEpsBytes) {
      std::ostringstream d;
      d << "rate profile moved " << moved << " bytes of " << t.bytes;
      flag(RaceViolation::Kind::kTransferAccounting, t, t.end_ns, d.str());
    }
  }

  // --- per-channel capacity sweep ---------------------------------------
  // Rate-delta events over every channel's segments; at equal timestamps
  // rate removals land before additions (back-to-back waves touch).
  struct RateEvent {
    double ts;
    double delta;
    const gpusim::TransferRecord* transfer;
  };
  std::map<int, std::vector<RateEvent>> by_channel;
  for (const gpusim::TransferRecord& t : transfers) {
    for (const gpusim::RateSegment& seg : t.segments) {
      if (seg.rate <= 0.0 || seg.end_ns <= seg.start_ns) continue;
      by_channel[t.channel].push_back(RateEvent{seg.start_ns, seg.rate, &t});
      by_channel[t.channel].push_back(RateEvent{seg.end_ns, -seg.rate, &t});
    }
  }
  report.channels_used = by_channel.size();
  for (auto& [channel, events] : by_channel) {
    std::sort(events.begin(), events.end(),
              [](const RateEvent& a, const RateEvent& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.delta < b.delta;
              });
    double rate = 0.0;
    for (const RateEvent& e : events) {
      rate += e.delta;
      report.peak_channel_rate = std::max(report.peak_channel_rate, rate);
      if (e.delta > 0.0 && rate > bandwidth + eps_rate) {
        std::ostringstream d;
        d << "channel " << channel << " carries " << rate
          << " bytes/ns at t=" << e.ts << " but the link provides "
          << bandwidth;
        flag(RaceViolation::Kind::kLinkOversubscribed, *e.transfer, e.ts,
             d.str());
      }
    }
  }

  return report;
}

std::vector<gpusim::TraceMarker> violation_markers(const RaceReport& report) {
  std::vector<gpusim::TraceMarker> markers;
  markers.reserve(report.violations.size());
  for (const RaceViolation& v : report.violations) {
    markers.push_back(gpusim::TraceMarker{
        std::string("RACE ") + kind_name(v.kind) + ": " + v.detail, v.ts_ns,
        v.stream});
  }
  return markers;
}

}  // namespace glpfuzz
