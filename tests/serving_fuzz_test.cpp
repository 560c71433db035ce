// Fixed-seed serving-differential corpus: random inference nets, devices,
// batching policies and open-loop traces through the differential core
// on every CI run. Extends the convergence-invariance contract to the
// serving path — the batched, tenant-sliced scheduled replay must be
// bit-identical to the serial batch-1 baseline, per-tenant FIFO, and
// race-free, clean and under injected launch, stream and capture faults.
// Failures print the seed; replay with
//
//   GLP_TEST_SEED=<seed> ./tests/serving_fuzz_test --gtest_filter='*EnvSeed*'

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "testing/differential.hpp"

namespace {

class ServingCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingCorpus, ScheduledBatchedReplayMatchesSerialBatchOne) {
  const std::uint64_t seed = GetParam();
  GLP_SCOPED_SEED(seed);
  const glpfuzz::ServeCase c = glpfuzz::make_serving_case(seed);
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
  EXPECT_TRUE(r.races.clean()) << r.races.to_string();
  EXPECT_EQ(r.max_diff, 0.0) << c.summary();
  EXPECT_GT(r.values_compared, 0u) << c.summary();
}

TEST_P(ServingCorpus, SurvivesInjectedFaults) {
  // A refused stream creation leaves that batch slot on the default
  // stream; refused launches re-issue there; lost profiler records only
  // shrink the analyzer's sample. None of it may change an output bit.
  const std::uint64_t seed = GetParam();
  GLP_SCOPED_SEED(seed);
  const glpfuzz::ServeCase c = glpfuzz::make_serving_case(seed);
  glpfuzz::DiffOptions opts;
  opts.faults.launch_failure_rate = 0.05;
  opts.faults.stream_create_failure_rate = 0.05;
  opts.faults.capture_loss_rate = 0.05;
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
  EXPECT_EQ(r.max_diff, 0.0) << c.summary();
}

INSTANTIATE_TEST_SUITE_P(Corpus, ServingCorpus,
                         ::testing::Range<std::uint64_t>(1, 16),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ServingFuzz, FaultDegradedScopesAreCounted) {
  // Stream-creation faults that degrade a scope to serial dispatch must
  // show in the result's fallback count, as they do for training.
  glpfuzz::DiffOptions opts;
  opts.faults.launch_failure_rate = 0.05;
  opts.faults.stream_create_failure_rate = 0.05;
  opts.faults.capture_loss_rate = 0.05;
  std::size_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed < 16; ++seed) {
    fallbacks +=
        glpfuzz::run_differential(glpfuzz::make_serving_case(seed), opts)
            .fallbacks;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(ServingFuzz, EnvSeedOverrideReplaysOneCase) {
  const std::uint64_t seed = glptest::test_seed(5);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::ServeCase c = glpfuzz::make_serving_case(seed);
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
}

TEST(ServingFuzz, CasesAreSeedDeterministic) {
  const glpfuzz::ServeCase a = glpfuzz::make_serving_case(77);
  const glpfuzz::ServeCase b = glpfuzz::make_serving_case(77);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t t = 0; t < a.nets.size(); ++t) {
    ASSERT_EQ(a.nets[t].layers.size(), b.nets[t].layers.size());
    for (std::size_t i = 0; i < a.nets[t].layers.size(); ++i) {
      EXPECT_EQ(a.nets[t].layers[i].type, b.nets[t].layers[i].type);
      EXPECT_EQ(a.nets[t].layers[i].name, b.nets[t].layers[i].name);
    }
  }
  const glpfuzz::ServeCase c = glpfuzz::make_serving_case(78);
  EXPECT_NE(a.summary(), c.summary());
}

}  // namespace
