// Fixed-seed fuzz corpus: 20 cases through the differential runner on
// every CI run. The seeds are the first 20 of the nightly fuzz sweep
// (`glp4nn_fuzz --cases 200 --seed 1`), so a regression in the scheduler,
// the dispatch policies or the simulator's ordering guarantees fails
// here before the full sweep runs. Failures print the seed; replay with
//
//   glp4nn_fuzz --replay <seed>
// or
//   GLP_TEST_SEED=<seed> ./tests/fuzz_regression_test --gtest_filter='*EnvSeed*'

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "testing/differential.hpp"
#include "testing/net_generator.hpp"

namespace {

class FuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCorpus, SerialAndScheduledTrainingAgree) {
  const std::uint64_t seed = GetParam();
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_case(seed);
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
  EXPECT_TRUE(r.races.clean()) << r.races.to_string();
  if (r.bit_exact_expected) {
    EXPECT_TRUE(r.bit_exact_observed)
        << c.summary() << ": max diff " << r.max_diff;
  }
}

TEST_P(FuzzCorpus, SurvivesLaunchFaultInjection) {
  // 5% of kernel launches are refused; the launcher re-routes them to
  // the default stream, which must not change a single float.
  const std::uint64_t seed = GetParam();
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_case(seed);
  glpfuzz::DiffOptions opts;
  opts.faults.launch_failure_rate = 0.05;
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpus,
                         ::testing::Range<std::uint64_t>(1, 21),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(FuzzRegression, EnvSeedOverrideReplaysOneCase) {
  const std::uint64_t seed = glptest::test_seed(42);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_case(seed);
  const glpfuzz::DiffResult r = glpfuzz::run_differential(c);
  EXPECT_TRUE(r.ok) << c.summary() << "\n" << r.failure;
}

TEST(FuzzRegression, GeneratedCasesAreSeedDeterministic) {
  const glpfuzz::FuzzCase a = glpfuzz::make_case(7);
  const glpfuzz::FuzzCase b = glpfuzz::make_case(7);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.net.layers.size(), b.net.layers.size());
  for (std::size_t i = 0; i < a.net.layers.size(); ++i) {
    EXPECT_EQ(a.net.layers[i].name, b.net.layers[i].name);
    EXPECT_EQ(a.net.layers[i].type, b.net.layers[i].type);
  }
  // Nearby seeds must not produce the same case.
  const glpfuzz::FuzzCase c = glpfuzz::make_case(8);
  EXPECT_NE(a.summary(), c.summary());
}

TEST(FuzzRegression, BitExactContractMatchesDesign) {
  // batch ≤ 32 → always exact; batch > 32 needs strict_repro + RR.
  mc::NetSpec small = glpfuzz::make_case(1).net;  // contains ≥1 conv
  for (auto& layer : small.layers) {
    if (layer.type == "Data") layer.params.batch_size = 16;
  }
  glp4nn::SchedulerOptions opts;
  opts.policy = glp4nn::DispatchPolicy::kBlockCyclic;
  EXPECT_TRUE(glpfuzz::bit_exact_contract(small, opts));

  for (auto& layer : small.layers) {
    if (layer.type == "Data") layer.params.batch_size = 48;
  }
  EXPECT_FALSE(glpfuzz::bit_exact_contract(small, opts));
  opts.strict_repro = true;
  EXPECT_FALSE(glpfuzz::bit_exact_contract(small, opts));  // still BC
  opts.policy = glp4nn::DispatchPolicy::kRoundRobin;
  EXPECT_TRUE(glpfuzz::bit_exact_contract(small, opts));
}

}  // namespace
