#include "gpusim/trace_export.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace gpusim {

namespace {
// Minimal JSON string escaping (kernel names are identifiers, but stay safe).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

namespace {

/// Append one timeline's records as pid `pid`. Shared by the
/// single-device and fleet exports so both stay span-for-span identical.
void emit_timeline(std::ostringstream& os, bool& first,
                   const Timeline& timeline, int pid) {
  auto emit = [&](const std::string& name, const std::string& category,
                  StreamId stream, SimTime start_ns, SimTime end_ns,
                  const std::string& args) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":\"" << escape(name) << "\",\"cat\":\"" << category
       << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << stream
       << ",\"ts\":" << start_ns / 1000.0
       << ",\"dur\":" << (end_ns - start_ns) / 1000.0;
    if (!args.empty()) os << ",\"args\":{" << args << "}";
    os << "}";
  };

  for (const KernelRecord& k : timeline.kernels()) {
    std::ostringstream args;
    args << "\"grid\":\"" << k.config.grid.x << "x" << k.config.grid.y << "x"
         << k.config.grid.z << "\",\"block\":\"" << k.config.block.x << "x"
         << k.config.block.y << "x" << k.config.block.z
         << "\",\"regs\":" << k.config.regs_per_thread
         << ",\"smem\":" << k.config.smem_per_block()
         << ",\"correlation\":" << k.correlation_id;
    if (k.tenant >= 0) args << ",\"tenant\":" << k.tenant;
    emit(k.name, "kernel", k.stream, k.start_ns, k.end_ns, args.str());
  }
  for (const CopyRecord& c : timeline.copies()) {
    std::ostringstream args;
    std::string name, cat;
    if (c.peer >= 0) {
      args << "\"bytes\":" << c.bytes << ",\"peer\":" << c.peer;
      name = "memcpy peer->" + std::to_string(c.peer);
      cat = "memcpy_peer";
    } else {
      args << "\"bytes\":" << c.bytes << ",\"dir\":\""
           << (c.host_to_device ? "H2D" : "D2H") << "\"";
      name = c.host_to_device ? "memcpy H2D" : "memcpy D2H";
      cat = "memcpy";
    }
    if (c.tenant >= 0) args << ",\"tenant\":" << c.tenant;
    emit(name, cat, c.stream, c.start_ns, c.end_ns, args.str());
  }
}

}  // namespace

std::string to_chrome_trace(const Timeline& timeline) {
  return to_chrome_trace(timeline, {});
}

std::string to_chrome_trace(const Timeline& timeline,
                            const std::vector<TraceMarker>& markers) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  emit_timeline(os, first, timeline, /*pid=*/0);
  for (const TraceMarker& m : markers) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":\"" << escape(m.name)
       << "\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
       << m.stream << ",\"ts\":" << m.ts_ns / 1000.0 << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string to_chrome_trace_fleet(const std::vector<const Timeline*>& timelines,
                                  const std::vector<std::string>& names) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (std::size_t d = 0; d < timelines.size(); ++d) {
    const std::string label = d < names.size()
                                  ? names[d]
                                  : "device " + std::to_string(d);
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << d
       << ",\"tid\":0,\"args\":{\"name\":\"" << escape(label) << "\"}}";
    os << ",\n  {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << d
       << ",\"tid\":0,\"args\":{\"sort_index\":" << d << "}}";
    GLP_REQUIRE(timelines[d] != nullptr, "fleet trace: null timeline " << d);
    emit_timeline(os, first, *timelines[d], static_cast<int>(d));
  }
  os << "\n]\n";
  return os.str();
}

void write_chrome_trace(const Timeline& timeline, const std::string& path) {
  write_chrome_trace(timeline, {}, path);
}

void write_chrome_trace(const Timeline& timeline,
                        const std::vector<TraceMarker>& markers,
                        const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  GLP_REQUIRE(file.good(), "cannot open trace file '" << path << "'");
  file << to_chrome_trace(timeline, markers);
  GLP_REQUIRE(file.good(), "writing trace file '" << path << "' failed");
}

void write_chrome_trace_fleet(const std::vector<const Timeline*>& timelines,
                              const std::string& path,
                              const std::vector<std::string>& names) {
  std::ofstream file(path, std::ios::trunc);
  GLP_REQUIRE(file.good(), "cannot open trace file '" << path << "'");
  file << to_chrome_trace_fleet(timelines, names);
  GLP_REQUIRE(file.good(), "writing trace file '" << path << "' failed");
}

}  // namespace gpusim
