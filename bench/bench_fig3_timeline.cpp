// Fig. 3: timeline of the kernels in the conv1 layer (MNIST / LeNet,
// batch 64) with and without multiple CUDA streams — an ASCII rendering
// of the paper's profiler screenshot. Each row is one stream; each
// kernel is drawn over its simulated [start, end) interval.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "gpusim/trace_export.hpp"
#include "common/strings.hpp"

namespace {

void render(const std::vector<gpusim::KernelRecord>& records,
            const std::string& prefix) {
  std::vector<gpusim::KernelRecord> scoped;
  for (const auto& r : records) {
    if (glp::starts_with(r.name, prefix)) scoped.push_back(r);
  }
  if (scoped.empty()) {
    std::printf("(no kernels)\n");
    return;
  }
  double t0 = scoped[0].start_ns, t1 = scoped[0].end_ns;
  for (const auto& r : scoped) {
    t0 = std::min(t0, r.start_ns);
    t1 = std::max(t1, r.end_ns);
  }
  const int columns = 100;
  const double scale = (t1 - t0) / columns;

  std::map<gpusim::StreamId, std::string> rows;
  for (const auto& r : scoped) {
    std::string& row = rows[r.stream];
    if (row.empty()) row.assign(static_cast<std::size_t>(columns), '.');
    int lo = static_cast<int>((r.start_ns - t0) / scale);
    int hi = static_cast<int>((r.end_ns - t0) / scale);
    lo = std::clamp(lo, 0, columns - 1);
    hi = std::clamp(hi, lo + 1, columns);
    // Mark im2col as 'i', gemm as 'g', bias as 'b'.
    char mark = '#';
    if (r.name.find("im2col") != std::string::npos) mark = 'i';
    if (r.name.find("sgemm") != std::string::npos) mark = 'g';
    if (r.name.find("bias") != std::string::npos) mark = 'b';
    for (int c = lo; c < hi; ++c) row[static_cast<std::size_t>(c)] = mark;
  }
  for (const auto& [stream, row] : rows) {
    std::printf("stream %-3d |%s|\n", stream, row.c_str());
  }
  std::printf("span: %.1f us, %zu kernels  (i=im2col g=sgemm b=add_bias)\n",
              (t1 - t0) / 1000.0, scoped.size());
}

void run_case(int streams) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  // One stream is the serial baseline; more is a fixed scheduler pool.
  kern::SerialDispatcher serial(ctx);
  glp4nn::SchedulerOptions fixed_pool;
  fixed_pool.fixed_streams = streams;
  glp4nn::Glp4nnEngine engine(fixed_pool);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = &serial;
  if (streams > 1) ec.dispatcher = &engine.scheduler_for(ctx);
  ec.mode = kern::ComputeMode::kTimingOnly;
  mc::Net net(mc::models::lenet(64), ec);

  ctx.device().timeline().set_enabled(true);
  net.forward();
  ctx.device().synchronize();

  std::printf("\n--- conv1 forward with %d stream(s) ---\n", streams);
  render(ctx.device().timeline().kernels(), "conv1/fwd/");

  const std::string trace_path =
      "/tmp/glp4nn_fig3_streams" + std::to_string(streams) + ".json";
  gpusim::write_chrome_trace(ctx.device().timeline(), trace_path);
  std::printf("full Chrome trace written to %s (open in chrome://tracing)\n",
              trace_path.c_str());
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 3: timeline of conv1 (MNIST) kernels with multiple CUDA streams");
  run_case(1);
  run_case(4);
  std::printf("\nExpected shape: with one stream kernels execute strictly\n"
              "back-to-back; with four streams per-sample chains overlap and\n"
              "the span shrinks.\n");
  return 0;
}
