#include "milp/problem.hpp"

#include "common/check.hpp"

namespace milp {

int Problem::add_variable(double lower, double upper, double objective,
                          bool integer, std::string name) {
  GLP_REQUIRE(lower <= upper, "variable bounds inverted: [" << lower << ", "
                                                            << upper << "]");
  Variable v;
  v.name = name.empty()
               ? std::string("x").append(std::to_string(variables_.size()))
               : std::move(name);
  v.lower = lower;
  v.upper = upper;
  v.objective = objective;
  v.integer = integer;
  variables_.push_back(std::move(v));
  return static_cast<int>(variables_.size()) - 1;
}

int Problem::add_constraint(std::vector<std::pair<int, double>> terms,
                            double lower, double upper, std::string name) {
  GLP_REQUIRE(lower <= upper, "constraint bounds inverted");
  for (const auto& [idx, coeff] : terms) {
    GLP_REQUIRE(idx >= 0 && idx < num_variables(),
                "constraint references unknown variable " << idx);
    (void)coeff;
  }
  Constraint c;
  c.name = name.empty()
               ? std::string("c").append(std::to_string(constraints_.size()))
               : std::move(name);
  c.terms = std::move(terms);
  c.lower = lower;
  c.upper = upper;
  constraints_.push_back(std::move(c));
  return static_cast<int>(constraints_.size()) - 1;
}

double Problem::objective_value(const std::vector<double>& x) const {
  GLP_REQUIRE(x.size() == variables_.size(), "point has wrong dimension");
  double v = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    v += variables_[i].objective * x[i];
  }
  return v;
}

bool Problem::feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (x[i] < variables_[i].lower - tol || x[i] > variables_[i].upper + tol) {
      return false;
    }
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [idx, coeff] : c.terms) lhs += coeff * x[static_cast<std::size_t>(idx)];
    if (lhs < c.lower - tol || lhs > c.upper + tol) return false;
  }
  return true;
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kLimit: return "limit";
  }
  return "?";
}

}  // namespace milp
