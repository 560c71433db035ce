// glp4nn_fuzz — differential fuzzer for the GLP4NN runtime scheduler.
//
// Samples random (net, device, scheduler-options) cases, or serving
// cases, from consecutive seeds and runs each through the differential
// core (testing/differential.hpp): the subject configuration against its
// baseline under the selected contract, plus an audit of the subject's
// timeline. Optionally arms fault injection to exercise graceful
// degradation.
//
//   glp4nn_fuzz --cases 200 --seed 1
//   glp4nn_fuzz --cases 200 --seed 1 --fault-rate 0.05
//   glp4nn_fuzz --cases 200 --seed 1 --serve
//   glp4nn_fuzz --replay 1337 --trace /tmp/case1337.json
//
// Flags:
//   --cases <n>          number of cases (default 50); seeds are
//                        seed, seed+1, ..., seed+n-1
//   --seed <s>           first seed (default 1)
//   --replay <s>         run exactly one seed, verbosely
//   --fault-rate <p>     injected kernel-launch failure probability
//   --stream-fault-rate <p>   injected stream-creation failure probability
//   --capture-loss-rate <p>   injected profiler record-loss probability
//   --max-batch <n>      cap generated batch sizes (default 64)
//   --engine-compare     engine contract: run the subject on the optimized
//                        engine AND ReferenceEngine and require
//                        bit-identical losses, parameters and device
//                        timelines (the hot-path equivalence gate).
//                        Without it, the subject is compared with its
//                        scenario's baseline (serial dispatch; for
//                        --fleet the sequential micro-batch oracle; for
//                        --serve the serial batch-1 server)
//   --dag                sample the branchy DAG corpus (inception fan-outs,
//                        diamond skips, fused elementwise chains) and
//                        train the subject under DAG scheduling: it must
//                        match serial AND chain-only issue, and one clean
//                        forward/backward pass is replayed against the
//                        op DAG
//   --serve              serving corpus: random inference nets (one or two
//                        tenants), devices, batch caps and open-loop
//                        traces; the tenant-sliced, batched server must
//                        serve every request, in arrival order per
//                        tenant, bit-identical to serial batch-1 serving
//   --fleet              fleet corpus (Dropout-stripped, bit-exact regime):
//                        train each case on an N-device fleet (bucketed
//                        all-reduce, eager overlap, per-device GLP4NN
//                        schedulers); every iteration's cross-device
//                        transfers are audited against the link contract
//   --fleet-devices <n>  fleet width (default 2)
//   --links <kind>       fleet interconnect: nvlink (ring) or pcie
//                        (shared host channel); default nvlink
//   --no-overlap         fleet: serialize-then-reduce baseline instead of
//                        eager bucketed overlap
//   --collective <c>     fleet all-reduce algorithm: auto (cost model,
//                        default) | ring | tree | hier | sample (rotate
//                        deterministically per case seed). The oracle
//                        replays whichever program is selected, so every
//                        algorithm is held to its own bit-exactness
//                        contract
//   --fp16-wire          fleet: fp16 gradient compression on the wire
//                        (still bit-identical to the fp16 oracle)
//   --no-branches        linear nets only
//   --no-timeline        skip the subject audits (race checks, op-schedule
//                        replay, link-contract audit)
//   --trace <file>       Chrome trace of the subject of the last failing
//                        (or replayed) case, with one marker per race
//                        violation; a fleet writes one row per device
//   --verbose            one summary line per case
//
// Exit code: 0 when every case passes, 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "gpusim/trace_export.hpp"
#include "testing/differential.hpp"
#include "testing/net_generator.hpp"

namespace {

[[noreturn]] void fail(const glp::Flags& flags, const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
               flags.usage().c_str());
  std::exit(2);
}

/// This run's flags minus the ones that pick seeds, output and verbosity:
/// appended to `--replay <seed>` they reproduce one case exactly.
std::string replay_flags(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = arg.substr(0, arg.find('='));
    if (name == "--cases" || name == "--seed" || name == "--replay" ||
        name == "--trace") {
      if (name == arg) ++i;  // skip the separate value
      continue;
    }
    if (arg != "--verbose") out += " " + arg;
  }
  return out;
}

/// One-line account of a passing case.
std::string describe(const glpfuzz::DiffResult& r) {
  std::ostringstream os;
  os << (r.bit_exact_observed ? "bit-exact" : "tolerance") << " over "
     << r.values_compared << " values (max diff " << r.max_diff << ")";
  if (r.kernels_compared + r.copies_compared > 0) {
    os << ", engines identical over " << r.kernels_compared << " kernels, "
       << r.copies_compared << " copies";
  }
  if (r.races.ops_checked > 0) {
    os << ", " << r.races.ops_checked << " ops, peak C="
       << r.races.peak_concurrency;
  }
  const std::size_t edges =
      r.forward_schedule.edges_checked + r.backward_schedule.edges_checked;
  if (edges > 0) {
    os << ", fused " << r.fused_chains << " chain(s) + " << r.relu_epilogues
       << " epilogue(s), op-concurrency fwd="
       << r.forward_schedule.peak_op_concurrency
       << " bwd=" << r.backward_schedule.peak_op_concurrency;
  }
  if (r.transfers.transfers_checked > 0) {
    os << ", " << r.transfers.transfers_checked << " transfer(s), peak link "
       << r.transfers.peak_channel_rate << " GB/s";
  }
  return os.str();
}

void write_trace(const glpfuzz::DiffResult& r, const std::string& path) {
  if (r.timelines.size() == 1) {
    gpusim::write_chrome_trace(r.timelines.front(),
                               glpfuzz::violation_markers(r.races), path);
  } else {
    std::vector<const gpusim::Timeline*> timelines;
    for (const gpusim::Timeline& t : r.timelines) timelines.push_back(&t);
    gpusim::write_chrome_trace_fleet(timelines, path);
  }
  std::printf("     trace written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int cases = 50;
  bool verbose = false;
  std::string trace_path;
  glpfuzz::NetGenOptions gen;
  glpfuzz::DiffOptions diff;

  unsigned long long seed_arg = 1;
  std::string replay_arg;
  bool no_branches = false, no_timeline = false, engine_compare = false;
  bool dag = false, fleet = false, serve = false, no_overlap = false;
  bool fp16_wire = false;
  std::string links = "nvlink";
  std::string collective = "auto";

  glp::Flags flags("glp4nn_fuzz",
                   "Differential fuzzer for the GLP4NN runtime scheduler "
                   "(exit 0 iff every case passes).");
  flags.opt("cases", &cases, "number of cases; seeds are seed..seed+n-1")
      .opt("seed", &seed_arg, "first seed")
      .opt("replay", &replay_arg, "run exactly this one seed, verbosely")
      .opt("fault-rate", &diff.faults.launch_failure_rate,
           "injected kernel-launch failure probability")
      .opt("stream-fault-rate", &diff.faults.stream_create_failure_rate,
           "injected stream-creation failure probability")
      .opt("capture-loss-rate", &diff.faults.capture_loss_rate,
           "injected profiler record-loss probability")
      .opt("max-batch", &gen.max_batch, "cap generated batch sizes")
      .flag("engine-compare", &engine_compare,
            "engine contract: optimized engine vs ReferenceEngine "
            "(bit-identical losses, params and timelines) instead of the "
            "scenario's baseline")
      .flag("dag", &dag,
            "branchy DAG corpus under DAG scheduling (vs serial AND vs "
            "chain-only, with op-schedule replay)")
      .flag("serve", &serve,
            "serving corpus: batched, tenant-sliced server vs serial "
            "batch-1 serving (full service, per-tenant FIFO)")
      .flag("fleet", &fleet,
            "fleet corpus: N-device data-parallel training (vs the "
            "sequential micro-batch oracle) + link-contract audit")
      .opt("fleet-devices", &diff.devices, "fleet width")
      .opt("links", &links, "fleet interconnect: nvlink or pcie")
      .flag("no-overlap", &no_overlap,
            "fleet: serialize-then-reduce instead of eager bucketed overlap")
      .opt("collective", &collective,
           "fleet all-reduce: auto|ring|tree|hier|sample (per case)")
      .flag("fp16-wire", &fp16_wire,
            "fleet: fp16 gradient compression on the wire")
      .flag("no-branches", &no_branches, "linear nets only")
      .flag("no-timeline", &no_timeline,
            "skip the subject audits (race checks, op-schedule replay, "
            "link-contract audit)")
      .opt("trace", &trace_path,
           "Chrome trace of the last failing (or replayed) case")
      .flag("verbose", &verbose, "one summary line per case");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }
  std::uint64_t seed = seed_arg;
  const bool replay = !replay_arg.empty();
  if (replay) {
    try {
      seed = std::stoull(replay_arg);
    } catch (const std::exception&) {
      fail(flags, "bad value '" + replay_arg + "' for --replay");
    }
    cases = 1;
    verbose = true;
  }
  if (no_branches) gen.allow_branches = false;
  diff.audit = !no_timeline;
  if (engine_compare) diff.contract = glpfuzz::Contract::kEngine;
  bool collective_sample = false;
  if (serve && (dag || fleet)) {
    fail(flags, "--serve excludes --dag and --fleet");
  }
  if (fleet) {
    if (dag) fail(flags, "--fleet excludes --dag");
    if (diff.devices < 1) fail(flags, "--fleet-devices must be >= 1");
    if (links == "nvlink") {
      diff.topology = gpusim::LinkTopology::kNvlinkRing;
    } else if (links == "pcie") {
      diff.topology = gpusim::LinkTopology::kPcieHost;
    } else {
      fail(flags, "--links must be nvlink or pcie");
    }
    diff.overlap = !no_overlap;
    if (collective == "sample") {
      collective_sample = true;
    } else if (const auto choice = comm::parse_collective(collective)) {
      diff.collective.collective = *choice;
    } else {
      fail(flags, "--collective must be auto|ring|tree|hier|sample");
    }
    diff.collective.wire =
        fp16_wire ? comm::WireFormat::kFp16 : comm::WireFormat::kFp32;
    diff.scenario = glpfuzz::Scenario::kFleet;
  }
  if (dag) {
    gen.dag_corpus = true;
    diff.scenario = glpfuzz::Scenario::kDag;
  }
  if (cases <= 0) fail(flags, "--cases must be positive");
  for (double rate : {diff.faults.launch_failure_rate,
                      diff.faults.stream_create_failure_rate,
                      diff.faults.capture_loss_rate}) {
    if (rate < 0.0 || rate > 1.0) {
      fail(flags, "fault rates must be probabilities in [0, 1]");
    }
  }

  int passed = 0, bit_exact = 0;
  glpfuzz::DiffResult total;  // accounting summed over cases
  int peak_op_concurrency = 0;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(i);
    if (collective_sample) {
      // Rotate through the choices deterministically so a failing seed
      // replays with the same algorithm.
      static const comm::CollectiveChoice kRotation[] = {
          comm::CollectiveChoice::kAuto, comm::CollectiveChoice::kRing,
          comm::CollectiveChoice::kTree, comm::CollectiveChoice::kHier};
      diff.collective.collective = kRotation[case_seed % 4];
    }

    glpfuzz::DiffResult r;
    std::string summary;
    const auto run = [&](const auto& c) {
      summary = c.summary();
      try {
        r = glpfuzz::run_differential(c, diff);
      } catch (const std::exception& e) {
        r.fail(std::string("exception: ") + e.what());
      }
    };
    if (serve) {
      run(glpfuzz::make_serving_case(case_seed, gen));
    } else if (fleet) {
      run(glpfuzz::make_fleet_case(case_seed, gen));
    } else {
      run(glpfuzz::make_case(case_seed, gen));
    }
    total.launch_faults += r.launch_faults;
    total.stream_faults += r.stream_faults;
    total.capture_drops += r.capture_drops;
    total.fallbacks += r.fallbacks;
    total.fused_chains += r.fused_chains;
    total.relu_epilogues += r.relu_epilogues;
    peak_op_concurrency = std::max({peak_op_concurrency,
                                    r.forward_schedule.peak_op_concurrency,
                                    r.backward_schedule.peak_op_concurrency});
    if (r.bit_exact_expected) ++bit_exact;

    if (r.ok) {
      ++passed;
      if (verbose) {
        std::printf("PASS %s | %s\n", summary.c_str(), describe(r).c_str());
      }
    } else {
      std::printf("FAIL %s\n     %s\n", summary.c_str(), r.failure.c_str());
      for (const std::string& report :
           {r.races.to_string(), r.forward_schedule.to_string(),
            r.backward_schedule.to_string()}) {
        std::fputs(report.c_str(), stdout);
      }
      std::printf("     replay: %s --replay %llu%s\n", argv[0],
                  static_cast<unsigned long long>(case_seed),
                  replay_flags(argc, argv).c_str());
    }
    if (!trace_path.empty() && (replay || !r.ok) && !r.timelines.empty()) {
      write_trace(r, trace_path);
    }
  }

  std::printf(
      "\n%d/%d cases passed (%d bit-exact regime, %d tolerance regime)\n",
      passed, cases, bit_exact, cases - bit_exact);
  if (total.launch_faults + total.stream_faults + total.capture_drops > 0) {
    std::printf(
        "faults injected: %zu launch, %zu stream-create, %zu capture drops; "
        "%zu scope(s) or comm lane(s) degraded\n",
        total.launch_faults, total.stream_faults, total.capture_drops,
        total.fallbacks);
  }
  if (dag) {
    std::printf(
        "dag: %zu coalesced chain(s), %zu ReLU epilogue(s), peak op "
        "concurrency %d\n",
        total.fused_chains, total.relu_epilogues, peak_op_concurrency);
  }
  return passed == cases ? 0 : 1;
}
