#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/problem.hpp"
#include "milp/simplex.hpp"

namespace {

using milp::BranchAndBoundSolver;
using milp::kInfinity;
using milp::Problem;
using milp::SimplexSolver;
using milp::Solution;
using milp::SolveStatus;

// --- Problem ------------------------------------------------------------------

TEST(Problem, ObjectiveValue) {
  Problem p;
  p.add_variable(0, 10, 2.0, false);
  p.add_variable(0, 10, -1.0, false);
  EXPECT_DOUBLE_EQ(p.objective_value({3.0, 4.0}), 2.0);
}

TEST(Problem, FeasibilityChecksBoundsAndRows) {
  Problem p;
  const int x = p.add_variable(0, 5, 1.0, false);
  p.add_constraint({{x, 1.0}}, 0.0, 3.0);
  EXPECT_TRUE(p.feasible({2.0}));
  EXPECT_FALSE(p.feasible({4.0}));   // violates the row
  EXPECT_FALSE(p.feasible({-1.0}));  // violates the bound
}

TEST(Problem, RejectsInvertedBounds) {
  Problem p;
  EXPECT_THROW(p.add_variable(5, 1, 0, false), glp::InvalidArgument);
}

TEST(Problem, RejectsUnknownVariableInConstraint) {
  Problem p;
  p.add_variable(0, 1, 0, false);
  EXPECT_THROW(p.add_constraint({{3, 1.0}}, 0, 1), glp::InvalidArgument);
}

// --- Simplex: textbook cases ---------------------------------------------------

TEST(Simplex, SimpleTwoVarMax) {
  // max 3x + 2y  st  x + y ≤ 4, x + 3y ≤ 6 → x=4, y=0, obj=12.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 3, false);
  const int y = p.add_variable(0, kInfinity, 2, false);
  p.add_constraint({{x, 1}, {y, 1}}, -kInfinity, 4);
  p.add_constraint({{x, 1}, {y, 3}}, -kInfinity, 6);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.values[0], 4.0, 1e-7);
}

TEST(Simplex, MinimizationWorks) {
  // min x + y st x + y ≥ 2 → obj 2.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1, false);
  const int y = p.add_variable(0, kInfinity, 1, false);
  p.add_constraint({{x, 1}, {y, 1}}, 2.0, kInfinity);
  p.set_maximize(false);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const int x = p.add_variable(0, 1, 1, false);
  p.add_constraint({{x, 1}}, 5.0, kInfinity);  // x ≥ 5 but x ≤ 1
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p;
  p.add_variable(0, kInfinity, 1, false);
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, HonorsVariableLowerBounds) {
  // max -x st x ≥ 2 (via bound) → x=2.
  Problem p;
  p.add_variable(2, 10, -1, false);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 2.0, 1e-7);
}

TEST(Simplex, RangeConstraint) {
  // max x st 1 ≤ x ≤ 3 (range row) → 3.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1, false);
  p.add_constraint({{x, 1}}, 1.0, 3.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate corner; Bland's rule must not cycle.
  Problem p;
  const int x1 = p.add_variable(0, kInfinity, 10, false);
  const int x2 = p.add_variable(0, kInfinity, -57, false);
  const int x3 = p.add_variable(0, kInfinity, -9, false);
  const int x4 = p.add_variable(0, kInfinity, -24, false);
  p.add_constraint({{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9}}, -kInfinity, 0);
  p.add_constraint({{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1}}, -kInfinity, 0);
  p.add_constraint({{x1, 1}}, -kInfinity, 1);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Simplex, BoundOverridesShrinkFeasibleRegion) {
  Problem p;
  const int x = p.add_variable(0, 10, 1, false);
  (void)x;
  const Solution full = SimplexSolver().solve(p);
  EXPECT_NEAR(full.objective, 10.0, 1e-7);
  const Solution tight = SimplexSolver().solve_with_bounds(p, {0.0}, {4.0});
  EXPECT_NEAR(tight.objective, 4.0, 1e-7);
  const Solution inverted = SimplexSolver().solve_with_bounds(p, {5.0}, {4.0});
  EXPECT_EQ(inverted.status, SolveStatus::kInfeasible);
}

// --- Branch & bound -------------------------------------------------------------

TEST(BranchAndBound, IntegerKnapsack) {
  // max 8a + 11b + 6c + 4d  st 5a+7b+4c+3d ≤ 14, binary → {0,1,1,1} = 21.
  Problem p;
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) {
    const int v = p.add_variable(0, 1, value[i], true);
    row.emplace_back(v, weight[i]);
  }
  p.add_constraint(row, 0, 14);
  const Solution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 21.0, 1e-7);
  EXPECT_NEAR(s.values[0], 0.0, 1e-7);
}

TEST(BranchAndBound, FractionalLpRoundsToWorseInteger) {
  // max x st 2x ≤ 5, x integer → 2 (LP gives 2.5).
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1, true);
  p.add_constraint({{x, 2}}, -kInfinity, 5);
  const Solution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(BranchAndBound, MixedIntegerAndContinuous) {
  // max x + y, x integer ≤ 2.5-ish via row, y continuous ≤ 1.7.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1, true);
  const int y = p.add_variable(0, 1.7, 1, false);
  p.add_constraint({{x, 1}}, -kInfinity, 2.5);
  const Solution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.7, 1e-6);
  EXPECT_NEAR(s.values[x], 2.0, 1e-6);
  EXPECT_NEAR(s.values[y], 1.7, 1e-6);
}

TEST(BranchAndBound, InfeasibleInteger) {
  // 0.4 ≤ x ≤ 0.6, integer → infeasible.
  Problem p;
  p.add_variable(0.4, 0.6, 1, true);
  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, MinimizationWithIntegers) {
  // min 3x + 2y st x + y ≥ 3.5, integers → obj 8 at (1,3) or (0,4)=8 → 8.
  Problem p;
  const int x = p.add_variable(0, 10, 3, true);
  const int y = p.add_variable(0, 10, 2, true);
  p.add_constraint({{x, 1}, {y, 1}}, 3.5, kInfinity);
  p.set_maximize(false);
  const Solution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-6);
}

TEST(BranchAndBound, ReportsNodeCount) {
  Problem p;
  const int x = p.add_variable(0, 100, 1, true);
  p.add_constraint({{x, 3}}, -kInfinity, 10);
  BranchAndBoundSolver solver;
  ASSERT_EQ(solver.solve(p).status, SolveStatus::kOptimal);
  EXPECT_GE(solver.last_node_count(), 1);
}

// --- Property: B&B equals brute force on random bounded integer programs -------

struct RandomMilpCase {
  std::uint64_t seed;
};

class MilpBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

Solution brute_force(const Problem& p) {
  // Exhaustive over the integer box (all variables integer, bounds ≤ 6).
  const int n = p.num_variables();
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  Solution best;
  best.status = SolveStatus::kInfeasible;
  const double sign = p.maximize() ? 1.0 : -1.0;
  std::function<void(int)> rec = [&](int i) {
    if (i == n) {
      if (!p.feasible(x)) return;
      const double obj = p.objective_value(x);
      if (best.status != SolveStatus::kOptimal ||
          sign * obj > sign * best.objective) {
        best.status = SolveStatus::kOptimal;
        best.objective = obj;
        best.values = x;
      }
      return;
    }
    const auto& v = p.variables()[static_cast<std::size_t>(i)];
    for (int k = static_cast<int>(v.lower); k <= static_cast<int>(v.upper); ++k) {
      x[static_cast<std::size_t>(i)] = k;
      rec(i + 1);
    }
  };
  rec(0);
  return best;
}

TEST_P(MilpBruteForce, MatchesExhaustiveSearch) {
  glp::Rng rng(GetParam());
  // 2–4 integer variables with bounds [0, 2..6], 1–3 ≤-constraints with
  // non-negative coefficients (always feasible at the origin).
  Problem p;
  const int n = 2 + static_cast<int>(rng.next_below(3));
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    const double ub = 2 + static_cast<double>(rng.next_below(5));
    const double obj = std::round(rng.uniform(-5.0f, 10.0f));
    vars.push_back(p.add_variable(0, ub, obj, true));
  }
  const int rows = 1 + static_cast<int>(rng.next_below(3));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    double cap = 0.0;
    for (int i = 0; i < n; ++i) {
      const double c = static_cast<double>(rng.next_below(4));
      if (c > 0) terms.emplace_back(vars[static_cast<std::size_t>(i)], c);
      cap += c;
    }
    if (terms.empty()) continue;
    p.add_constraint(terms, 0.0, std::max(1.0, std::round(cap * 1.5)));
  }

  const Solution exact = brute_force(p);
  const Solution bb = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(bb.status, exact.status);
  if (exact.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(bb.objective, exact.objective, 1e-6)
        << "seed " << GetParam();
    EXPECT_TRUE(p.feasible(bb.values));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpBruteForce,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
