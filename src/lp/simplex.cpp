#include "lp/simplex.hpp"

#include <cmath>
#include <stdexcept>

#include "lp/revised.hpp"

namespace ced::lp {

int LpProblem::add_variable(double lower, double upper, double objective) {
  if (!(lower <= upper)) throw std::invalid_argument("bad variable bounds");
  if (!std::isfinite(lower)) {
    throw std::invalid_argument("lower bound must be finite");
  }
  lower_.push_back(lower);
  upper_.push_back(upper);
  obj_.push_back(objective);
  return static_cast<int>(lower_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
  for (const auto& [v, c] : terms) {
    (void)c;
    if (v < 0 || v >= num_variables()) {
      throw std::invalid_argument("constraint references unknown variable");
    }
  }
  rows_.push_back(std::move(terms));
  rels_.push_back(rel);
  rhs_.push_back(rhs);
}

namespace {

const char* to_label(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iter-limit";
    case Status::kTimeLimit: return "time-limit";
  }
  return "?";
}

}  // namespace

LpResult solve(const LpProblem& p, const SolverOptions& opts) {
  // Observability wrapper: the solve itself never consults the sinks, so
  // the pivot sequence is identical whether or not anything is recording.
  if (!opts.obs.enabled()) return revised_solve(p, opts);
  obs::ScopedSpan span(opts.obs, "lp-solve");
  const LpResult res = revised_solve(p, opts);
  span.attr("vars", static_cast<std::uint64_t>(p.num_variables()));
  span.attr("rows", static_cast<std::uint64_t>(p.num_constraints()));
  span.attr("pivots", static_cast<std::uint64_t>(res.iterations));
  span.attr("status", to_label(res.status));
  span.attr("phase1_pivots",
            static_cast<std::uint64_t>(res.phase1_iterations));
  span.attr("refactorizations",
            static_cast<std::uint64_t>(res.refactorizations));
  if (opts.warm != nullptr) {
    span.attr("warm", res.warm_applied ? "hit" : "miss");
  }
  if (opts.obs.metrics != nullptr) {
    obs::MetricsShard shard(opts.obs.metrics);
    shard.add("ced_lp_solves_total");
    shard.add("ced_lp_pivots_total", static_cast<std::uint64_t>(res.iterations));
    shard.observe("ced_lp_pivots_per_solve",
                  static_cast<double>(res.iterations));
    shard.add("ced_lp_refactorizations_total",
              static_cast<std::uint64_t>(res.refactorizations));
    if (opts.warm != nullptr) {
      shard.add("ced_lp_warm_attempts_total");
      if (res.warm_applied) shard.add("ced_lp_warm_hits_total");
    }
  }
  return res;
}

}  // namespace ced::lp
