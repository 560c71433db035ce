#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"

namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  glp::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ReseedResetsSequence) {
  glp::Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, DifferentSeedsDiffer) {
  glp::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  glp::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  glp::Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-2.5f, 7.25f);
    EXPECT_GE(v, -2.5f);
    EXPECT_LT(v, 7.25f);
  }
}

TEST(Rng, NextBelowIsInRangeAndCoversAll) {
  glp::Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  glp::Rng rng(6);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianScalesMeanAndStd) {
  glp::Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0f, 0.5f);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

// --- strings -------------------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = glp::split("a,b,,c", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitMultipleDelims) {
  const auto parts = glp::split("a b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitEmpty) { EXPECT_TRUE(glp::split("", ",").empty()); }

TEST(Strings, Trim) {
  EXPECT_EQ(glp::trim("  hello \t\n"), "hello");
  EXPECT_EQ(glp::trim("x"), "x");
  EXPECT_EQ(glp::trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(glp::starts_with("conv1/fwd/im2col", "conv1/fwd"));
  EXPECT_FALSE(glp::starts_with("conv1", "conv10"));
}

TEST(Strings, Strformat) {
  EXPECT_EQ(glp::strformat("%d-%s-%.1f", 3, "x", 2.5), "3-x-2.5");
  EXPECT_EQ(glp::strformat("%s", ""), "");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(glp::human_bytes(512), "512.0 B");
  EXPECT_EQ(glp::human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(glp::human_bytes(3u << 20), "3.0 MiB");
}

// --- check macros -----------------------------------------------------------

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(GLP_REQUIRE(false, "boom " << 42), glp::InvalidArgument);
}

TEST(Check, CheckThrowsInternalError) {
  EXPECT_THROW(GLP_CHECK(1 == 2), glp::InternalError);
}

TEST(Check, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(GLP_CHECK(true));
  EXPECT_NO_THROW(GLP_REQUIRE(true, "fine"));
}

TEST(Check, MessageContainsExpressionAndDetail) {
  try {
    GLP_REQUIRE(2 + 2 == 5, "math is broken: " << 5);
    FAIL() << "should have thrown";
  } catch (const glp::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("math is broken: 5"), std::string::npos);
  }
}

// --- parallel_for -------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  glp::parallel_for(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SmallRangeRunsInline) {
  int calls = 0;
  glp::parallel_for(0, 10, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  glp::parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, DeterministicSum) {
  // Static partitioning: per-partition sums combined in index order must
  // be identical across runs.
  const std::size_t n = 1 << 18;
  std::vector<double> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = std::sin(static_cast<double>(i));
  auto run = [&] {
    std::vector<double> out(n);
    glp::parallel_for(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) out[i] = input[i] * 3.0 + 1.0;
        },
        1);
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  EXPECT_EQ(run(), run());
}

TEST(ParallelFor, ManySequentialDispatches) {
  // Regression guard for pool wake/sleep races: thousands of short jobs.
  std::atomic<long> total{0};
  for (int round = 0; round < 2000; ++round) {
    glp::parallel_for(
        0, 4096,
        [&](std::size_t lo, std::size_t hi) {
          total.fetch_add(static_cast<long>(hi - lo), std::memory_order_relaxed);
        },
        1);
  }
  EXPECT_EQ(total.load(), 2000L * 4096L);
}

TEST(ParallelFor, ChunkBoundariesFollowGrain) {
  // The determinism contract: chunks start at multiples of the grain and
  // never exceed it, independent of the worker count.
  glp::set_parallel_workers(4);
  const std::size_t n = 10000, grain = 128;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  glp::parallel_for(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      grain);
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), (n + grain - 1) / grain);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, i * grain);
    EXPECT_EQ(chunks[i].second, std::min(n, (i + 1) * grain));
  }
  glp::set_parallel_workers(1);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // The pool is not reentrant: an inner parallel_for from a worker must
  // degrade to a single inline call instead of deadlocking.
  glp::set_parallel_workers(4);
  std::atomic<int> inner_calls{0};
  glp::parallel_for(
      0, 8,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          glp::parallel_for(
              0, 100000,
              [&](std::size_t ilo, std::size_t ihi) {
                EXPECT_EQ(ilo, 0u);
                EXPECT_EQ(ihi, 100000u);
                inner_calls.fetch_add(1, std::memory_order_relaxed);
              },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(inner_calls.load(), 8);
  glp::set_parallel_workers(1);
}

TEST(ParallelWorkers, AtLeastOne) { EXPECT_GE(glp::parallel_workers(), 1); }

TEST(ParallelWorkers, SetRoundTrips) {
  const int before = glp::parallel_workers();
  glp::set_parallel_workers(3);
  EXPECT_EQ(glp::parallel_workers(), 3);
  // The resized pool must actually execute work.
  std::atomic<long> total{0};
  glp::parallel_for(
      0, 4096,
      [&](std::size_t lo, std::size_t hi) {
        total.fetch_add(static_cast<long>(hi - lo), std::memory_order_relaxed);
      },
      1);
  EXPECT_EQ(total.load(), 4096L);
  glp::set_parallel_workers(0);  // clamps to 1
  EXPECT_EQ(glp::parallel_workers(), 1);
  glp::set_parallel_workers(before);
}

// --- timer ---------------------------------------------------------------------

TEST(WallTimer, MeasuresElapsedTime) {
  glp::WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.elapsed_us(), 0.0);
  EXPECT_GE(t.elapsed_ms() * 1000.0, t.elapsed_us() * 0.5);
}

TEST(WallTimer, ResetRestarts) {
  glp::WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double before = t.elapsed_us();
  t.reset();
  EXPECT_LE(t.elapsed_us(), before + 1e6);
}

// --- Flags (the shared glp4nn_* CLI parser) ----------------------------------

glp::Flags::Status parse_argv(glp::Flags& flags,
                              std::vector<const char*> argv,
                              std::ostringstream& out,
                              std::ostringstream& err) {
  argv.insert(argv.begin(), "prog");
  return flags.parse(static_cast<int>(argv.size()),
                     const_cast<char* const*>(argv.data()), out, err);
}

TEST(Flags, ParsesEveryKindAndBothValueForms) {
  bool sw = false;
  int i = 1;
  double d = 2.0;
  unsigned long long u = 3;
  std::string s = "default";
  glp::Flags flags("t", "test");
  flags.flag("switch", &sw, "a switch")
      .opt("int", &i, "an int")
      .opt("double", &d, "a double")
      .opt("u64", &u, "a u64")
      .opt("str", &s, "a string");

  std::ostringstream out, err;
  const auto st = parse_argv(
      flags, {"--switch", "--int", "42", "--double=2.5", "--u64", "9", "--str=x"},
      out, err);
  EXPECT_EQ(st, glp::Flags::Status::kOk);
  EXPECT_TRUE(sw);
  EXPECT_EQ(i, 42);
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(u, 9ull);
  EXPECT_EQ(s, "x");
  EXPECT_TRUE(err.str().empty());
}

TEST(Flags, UntouchedTargetsKeepTheirDefaults) {
  int i = 7;
  std::string s = "keep";
  glp::Flags flags("t", "test");
  flags.opt("int", &i, "an int").opt("str", &s, "a string");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags, {"--int", "8"}, out, err),
            glp::Flags::Status::kOk);
  EXPECT_EQ(i, 8);
  EXPECT_EQ(s, "keep");
}

TEST(Flags, HelpPrintsUsageWithDefaults) {
  int i = 123;
  glp::Flags flags("mytool", "does things");
  flags.opt("iters", &i, "iteration count");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags, {"--help"}, out, err),
            glp::Flags::Status::kHelp);
  EXPECT_NE(out.str().find("mytool"), std::string::npos);
  EXPECT_NE(out.str().find("--iters"), std::string::npos);
  EXPECT_NE(out.str().find("123"), std::string::npos);  // current default shown
  EXPECT_TRUE(err.str().empty());
}

TEST(Flags, RejectsUnknownFlagWithUsageOnStderr) {
  glp::Flags flags("t", "test");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags, {"--bogus"}, out, err),
            glp::Flags::Status::kError);
  EXPECT_NE(err.str().find("--bogus"), std::string::npos);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Flags, RejectsBadAndMissingValues) {
  int i = 0;
  glp::Flags flags("t", "test");
  flags.opt("int", &i, "an int");
  {
    std::ostringstream out, err;
    EXPECT_EQ(parse_argv(flags, {"--int", "12abc"}, out, err),
              glp::Flags::Status::kError);  // trailing junk: full-consume check
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(parse_argv(flags, {"--int"}, out, err),
              glp::Flags::Status::kError);  // value missing entirely
  }
}

TEST(Flags, ListOptionAppendsAcrossOccurrencesAndSplitsCommas) {
  std::vector<std::string> gens;
  glp::Flags flags("t", "test");
  flags.opt_list("device-gen", &gens, "device generations");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags,
                       {"--device-gen=P100,TitanXP", "--device-gen", "K40C"},
                       out, err),
            glp::Flags::Status::kOk);
  EXPECT_EQ(gens, (std::vector<std::string>{"P100", "TitanXP", "K40C"}));
}

TEST(Flags, ListOptionFirstOccurrenceDropsPreloadedDefaults) {
  std::vector<std::string> gens = {"default-a", "default-b"};
  glp::Flags flags("t", "test");
  flags.opt_list("device-gen", &gens, "device generations");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags, {"--device-gen=P100"}, out, err),
            glp::Flags::Status::kOk);
  EXPECT_EQ(gens, std::vector<std::string>{"P100"});
}

TEST(Flags, ListOptionKeepsDefaultsWhenAbsent) {
  std::vector<std::string> gens = {"keep"};
  int i = 0;
  glp::Flags flags("t", "test");
  flags.opt_list("device-gen", &gens, "device generations").opt("int", &i, "x");
  std::ostringstream out, err;
  EXPECT_EQ(parse_argv(flags, {"--int", "1"}, out, err),
            glp::Flags::Status::kOk);
  EXPECT_EQ(gens, std::vector<std::string>{"keep"});
}

TEST(Flags, ListOptionRejectsEmptyElements) {
  std::vector<std::string> gens;
  glp::Flags flags("t", "test");
  flags.opt_list("device-gen", &gens, "device generations");
  for (const char* bad : {"--device-gen=", "--device-gen=a,,b",
                          "--device-gen=a,", "--device-gen=,a"}) {
    std::vector<std::string> reset;
    gens = reset;
    std::ostringstream out, err;
    EXPECT_EQ(parse_argv(flags, {bad}, out, err), glp::Flags::Status::kError)
        << bad;
  }
}

}  // namespace
