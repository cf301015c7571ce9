// Sparse revised simplex (lp/revised.cpp): equivalence against the dense
// tableau reference (tests/reference/dense_simplex.hpp) on random problems
// and on every cover-LP formulation, degenerate/cycling guards (Bland
// fallback), and the warm-start contract — a basis carried across cover-LP
// formulations (core/ilp.hpp identity keys) must never change feasibility
// verdicts or optimal objectives, and the full solver must select the same
// q at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "lp/simplex.hpp"
#include "reference/dense_simplex.hpp"
#include "reference/scalar_cover.hpp"

namespace ced {
namespace {

using core::DetectabilityTable;
using core::ErroneousCase;

using reference::random_table;

/// Random bounded LP with mixed relations (only >= and = rows when
/// `with_le` is false: every logical is a -1 surplus or a fixed
/// artificial). Bounds are finite-lower with a mix of finite and infinite
/// uppers; coefficients are small integers so degenerate ties are common.
lp::LpProblem random_lp(std::mt19937_64& rng, int nv, int m,
                        bool with_le = true) {
  lp::LpProblem p;
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_real_distribution<double> low(-4.0, 1.0);
  std::uniform_real_distribution<double> span(0.0, 6.0);
  std::uniform_int_distribution<int> pick(0, 5);
  for (int j = 0; j < nv; ++j) {
    const double l = low(rng);
    const double u = pick(rng) == 0 ? lp::kInfinity : l + span(rng);
    p.add_variable(l, u, static_cast<double>(coeff(rng)));
  }
  p.set_objective_sense(pick(rng) % 2 == 0 ? lp::Objective::kMinimize
                                           : lp::Objective::kMaximize);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j) {
      const int c = coeff(rng);
      if (c != 0) terms.emplace_back(j, static_cast<double>(c));
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const int r = with_le ? pick(rng) % 3 : 1 + pick(rng) % 2;
    const lp::Relation rel = r == 0   ? lp::Relation::kLe
                             : r == 1 ? lp::Relation::kGe
                                      : lp::Relation::kEq;
    p.add_constraint(std::move(terms), rel, static_cast<double>(coeff(rng)));
  }
  return p;
}

/// Max constraint violation of x (0 when x satisfies the whole system).
double violation(const lp::LpProblem& p, const std::vector<double>& x) {
  double worst = 0.0;
  for (int i = 0; i < p.num_constraints(); ++i) {
    double lhs = 0.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      lhs += c * x[static_cast<std::size_t>(v)];
    }
    const double rhs = p.rhs()[static_cast<std::size_t>(i)];
    switch (p.relations()[static_cast<std::size_t>(i)]) {
      case lp::Relation::kLe: worst = std::max(worst, lhs - rhs); break;
      case lp::Relation::kGe: worst = std::max(worst, rhs - lhs); break;
      case lp::Relation::kEq: worst = std::max(worst, std::abs(lhs - rhs));
        break;
    }
  }
  return worst;
}

TEST(RevisedLp, MatchesDenseOracleOnRandomProblems) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> nv_dist(1, 12);
  std::uniform_int_distribution<int> m_dist(1, 14);
  int optimal_seen = 0;
  for (int t = 0; t < 300; ++t) {
    const lp::LpProblem p = random_lp(rng, nv_dist(rng), m_dist(rng));
    const lp::LpResult revised = lp::solve(p);
    const lp::LpResult dense = reference::dense_solve(p);
    ASSERT_EQ(revised.status, dense.status) << "instance " << t;
    if (revised.status != lp::Status::kOptimal) continue;
    ++optimal_seen;
    const double tol = 1e-6 * (1.0 + std::abs(dense.objective));
    EXPECT_NEAR(revised.objective, dense.objective, tol) << "instance " << t;
    EXPECT_LE(violation(p, revised.x), 1e-6) << "instance " << t;
  }
  // The generator must actually exercise the optimal path, not just
  // infeasible/unbounded corners.
  EXPECT_GT(optimal_seen, 50);
}

// Beale's classic cycling example: Dantzig pricing with exact degenerate
// ties cycles forever without anti-cycling; the stall counter must hand
// over to Bland's rule and terminate at the optimum.
TEST(RevisedLp, BealeCyclingExampleTerminates) {
  lp::LpProblem p;
  const int x1 = p.add_variable(0, lp::kInfinity, -0.75);
  const int x2 = p.add_variable(0, lp::kInfinity, 150.0);
  const int x3 = p.add_variable(0, lp::kInfinity, -0.02);
  const int x4 = p.add_variable(0, lp::kInfinity, 6.0);
  p.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   lp::Relation::kLe, 0.0);
  p.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   lp::Relation::kLe, 0.0);
  p.add_constraint({{x3, 1.0}}, lp::Relation::kLe, 1.0);
  const lp::LpResult res = lp::solve(p);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_NEAR(res.objective, -0.05, 1e-9);
}

// A massively degenerate system — every constraint is tight at the lone
// optimal vertex and duplicated several times, so nearly every ratio test
// ties at zero. The solver must still reach the optimum within its budget.
TEST(RevisedLp, MassDegeneracyReachesOptimum) {
  lp::LpProblem p;
  const int n = 8;
  std::vector<int> xs;
  for (int j = 0; j < n; ++j) xs.push_back(p.add_variable(0.0, 1.0, -1.0));
  for (int rep = 0; rep < 4; ++rep) {
    for (int j = 0; j < n; ++j) {
      p.add_constraint({{xs[static_cast<std::size_t>(j)], 1.0}},
                       lp::Relation::kLe, 0.0);
    }
  }
  std::vector<std::pair<int, double>> all;
  for (int j = 0; j < n; ++j) all.emplace_back(xs[static_cast<std::size_t>(j)], 1.0);
  p.add_constraint(std::move(all), lp::Relation::kGe, 0.0);
  const lp::LpResult res = lp::solve(p);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-9);
}

// Warm-starting a solve from its own optimal basis must apply structurally,
// re-prove optimality with zero phase-1 work, and reproduce the objective.
TEST(RevisedLp, WarmFromOwnBasisIsFree) {
  std::mt19937_64 rng(11);
  const DetectabilityTable t = random_table(rng, 12, 40, 3);
  const std::vector<std::uint32_t> rows = [&] {
    std::vector<std::uint32_t> r(t.cases.size());
    for (std::uint32_t i = 0; i < r.size(); ++i) r[i] = i;
    return r;
  }();
  core::LpFormulation f = core::build_lp(t, rows, 3);
  lp::SolverOptions opts;
  opts.want_basis = true;
  const lp::LpResult cold = lp::solve(f.problem, opts);
  ASSERT_EQ(cold.status, lp::Status::kOptimal);
  ASSERT_TRUE(cold.basis.has_value());

  lp::SolverOptions warm_opts;
  warm_opts.warm = &*cold.basis;
  const lp::LpResult warm = lp::solve(f.problem, warm_opts);
  ASSERT_EQ(warm.status, lp::Status::kOptimal);
  EXPECT_TRUE(warm.warm_applied);
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
}

// The cross-formulation warm-start contract: mapping the q-basis onto the
// q+1 / q-1 formulations (the binary search's neighbors) must leave the
// optimal objective and the feasibility verdict identical to a cold solve
// — a warm start changes the pivot path, never the answer.
TEST(RevisedLp, WarmAcrossQMatchesColdOracle) {
  std::mt19937_64 rng(23);
  for (int inst = 0; inst < 100; ++inst) {
    const int n = 6 + static_cast<int>(rng() % 8);
    const std::size_t m = 10 + rng() % 30;
    const DetectabilityTable t =
        random_table(rng, n, m, 1 + static_cast<int>(rng() % 3));
    std::vector<std::uint32_t> rows(t.cases.size());
    for (std::uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const int q = 1 + static_cast<int>(rng() % 3);

    core::LpFormulation from = core::build_lp(t, rows, q);
    lp::SolverOptions opts;
    opts.want_basis = true;
    const lp::LpResult seed = lp::solve(from.problem, opts);
    if (seed.status != lp::Status::kOptimal) continue;
    const core::LpBasisMemo memo{from.var_key, from.row_key, *seed.basis};

    for (const int q2 : {q + 1, std::max(1, q - 1), q}) {
      core::LpFormulation to = core::build_lp(t, rows, q2);
      const lp::LpResult cold = lp::solve(to.problem, {});
      const lp::BasisSnapshot snap = core::map_basis_to(memo, to);
      lp::SolverOptions wopts;
      wopts.warm = &snap;
      const lp::LpResult warm = lp::solve(to.problem, wopts);
      ASSERT_EQ(warm.status, cold.status)
          << "instance " << inst << " q " << q << "->" << q2;
      if (cold.status == lp::Status::kOptimal) {
        EXPECT_NEAR(warm.objective, cold.objective,
                    1e-6 * (1.0 + std::abs(cold.objective)))
            << "instance " << inst << " q " << q << "->" << q2;
      }
    }
  }
}

// The solver's first cover LP — reduced and literal Statement 5, over a
// range of q — must be feasible at its optimum and
// agree with the dense reference on status and optimal objective (the
// reference must certify every formulation: no abstentions); and the full
// Algorithm-1 solver (warm started across its probes) must select the
// same q at 1 and at 4 threads and a complete cover. Covers 100 random
// instances.
TEST(RevisedLp, FormulationsMatchDenseAndQIdenticalThreads1And4) {
  std::mt19937_64 rng(31);
  int compared = 0;
  int inconclusive = 0;
  for (int inst = 0; inst < 100; ++inst) {
    const int n = 8 + static_cast<int>(rng() % 8);
    const std::size_t m = 20 + rng() % 80;
    const DetectabilityTable t =
        random_table(rng, n, m, 1 + static_cast<int>(rng() % 3));
    // The rows of the solver's first LP: the hardest lp_sample_rows rows.
    core::Algorithm1Options opts;
    const core::SolverContext ctx(t);
    const std::vector<std::uint32_t> rows(
        ctx.hard_order.begin(),
        ctx.hard_order.begin() +
            std::min<std::ptrdiff_t>(opts.lp_sample_rows,
                                     static_cast<std::ptrdiff_t>(m)));

    for (const int q : {1, 2, 3}) {
      for (const bool s5 : {false, true}) {
        // The literal form carries q*p*m extra w columns, and the dense
        // reference's cost grows with the square of the tableau, so it is
        // checked on the smaller q only.
        if (s5 && q > 2) continue;
        const core::LpFormulation f = s5
                                          ? core::build_lp_statement5(t, rows, q)
                                          : core::build_lp(t, rows, q);
        const lp::LpResult res = lp::solve(f.problem);
        bool abstained = false;
        EXPECT_TRUE(
            reference::agrees_with_dense(f.problem, res, {}, &abstained))
            << "instance " << inst << " q " << q
            << (s5 ? " statement5" : " reduced");
        ++compared;
        if (abstained) ++inconclusive;
      }
    }

    opts.iter = 8;
    opts.row_rounds = 2;
    opts.seed = 0x5eed + static_cast<std::uint64_t>(inst);

    int q_by_threads[2];
    for (const int threads : {1, 4}) {
      opts.threads = threads;
      core::Algorithm1Stats stats;
      const auto sol = core::minimize_parity_functions(t, opts, &stats);
      ASSERT_TRUE(reference::ref_uncovered(sol, t).empty())
          << "instance " << inst << " threads " << threads;
      q_by_threads[threads == 4] = static_cast<int>(sol.size());
      EXPECT_LE(stats.lp_warm_hits, stats.lp_warm_attempts);
    }
    EXPECT_EQ(q_by_threads[0], q_by_threads[1]) << "instance " << inst;
  }
  // The dense reference must actually certify every formulation.
  EXPECT_EQ(inconclusive, 0) << inconclusive << " of " << compared;
}

/// Instance `k` of the random cover tables the formulation test above
/// draws (same generator, same seed, same order of draws).
DetectabilityTable formulation_instance(int k) {
  std::mt19937_64 rng(31);
  for (int inst = 0;; ++inst) {
    const int n = 8 + static_cast<int>(rng() % 8);
    const std::size_t m = 20 + rng() % 80;
    DetectabilityTable t =
        random_table(rng, n, m, 1 + static_cast<int>(rng() % 3));
    if (inst == k) return t;
  }
}

// Long degenerate pivot runs on the reduced cover LP over ALL rows of a
// table. Without periodic re-inversion the dense reference's tableau
// drifts on these: instance 98 at q=4 ends "optimal" at an infeasible
// point (violation 0.28) and instance 8 at q=6 cycles into the iteration
// cap, so the reference abstains. Both must be certified and agree.
TEST(RevisedLp, DenseReferenceCertifiesLongDegenerateRuns) {
  for (const auto& [inst, q] : {std::pair{98, 4}, std::pair{8, 6}}) {
    const DetectabilityTable t = formulation_instance(inst);
    std::vector<std::uint32_t> rows(t.cases.size());
    for (std::uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const core::LpFormulation f = core::build_lp(t, rows, q);
    const lp::LpResult res = lp::solve(f.problem);
    ASSERT_EQ(res.status, lp::Status::kOptimal) << "instance " << inst;
    bool abstained = false;
    EXPECT_TRUE(reference::agrees_with_dense(f.problem, res, {}, &abstained))
        << "instance " << inst << " q " << q;
    EXPECT_FALSE(abstained) << "instance " << inst << " q " << q;
  }
}

/// Same status as the dense reference and, when optimal, the same
/// objective and a feasible x.
::testing::AssertionResult matches_dense(const lp::LpProblem& p,
                                         const lp::LpResult& res,
                                         const lp::LpResult& dense) {
  if (res.status != dense.status) {
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(res.status) << " vs dense "
           << static_cast<int>(dense.status);
  }
  if (res.status != lp::Status::kOptimal) return ::testing::AssertionSuccess();
  const double tol = 1e-6 * (1.0 + std::abs(dense.objective));
  if (std::abs(res.objective - dense.objective) > tol) {
    return ::testing::AssertionFailure()
           << "objective " << res.objective << " vs dense " << dense.objective;
  }
  if (violation(p, res.x) > 1e-6) {
    return ::testing::AssertionFailure() << "infeasible x";
  }
  return ::testing::AssertionSuccess();
}

// Refactorization appends each basic logical as a unit eta on its own row.
// Exercise that path where it is least trivial: rows that are only >= (a
// -1 surplus logical) and = (a fixed artificial), a refactorization after
// every pivot or every few, so logicals that entered at other rows'
// positions are refactorized onto their own rows mid-solve, and warm bases
// whose rows are shuffled or filled with random structurals (a different
// set of basic logicals, possibly dependent columns for the repair path).
TEST(RevisedLp, GeEqRowsAndPermutedWarmBasesMatchDense) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<int> nv_dist(1, 14);
  std::uniform_int_distribution<int> m_dist(1, 18);
  int optimal_seen = 0;
  int refactorized = 0;
  for (int t = 0; t < 300; ++t) {
    const int nv = nv_dist(rng);
    const int m = m_dist(rng);
    const lp::LpProblem p = random_lp(rng, nv, m, /*with_le=*/t % 3 != 0);
    const lp::LpResult dense = reference::dense_solve(p);

    lp::SolverOptions cold_opts;
    cold_opts.want_basis = true;
    const lp::LpResult cold = lp::solve(p, cold_opts);
    ASSERT_TRUE(matches_dense(p, cold, dense)) << "instance " << t;
    if (dense.status == lp::Status::kOptimal) ++optimal_seen;

    lp::BasisSnapshot shuffled;
    if (cold.basis) {
      shuffled = *cold.basis;
      std::shuffle(shuffled.row_basic.begin(), shuffled.row_basic.end(), rng);
    }
    lp::BasisSnapshot random;
    random.row_basic.resize(static_cast<std::size_t>(m));
    random.at_upper.resize(static_cast<std::size_t>(nv));
    for (auto& r : random.row_basic) {
      r = rng() % 3 == 0 ? -1 : static_cast<std::int32_t>(rng() % nv);
    }
    for (auto& u : random.at_upper) u = static_cast<std::uint8_t>(rng() % 2);

    for (const int interval : {1, 3}) {
      const std::vector<const lp::BasisSnapshot*> warms = {
          nullptr, cold.basis ? &shuffled : nullptr, &random};
      for (const lp::BasisSnapshot* warm : warms) {
        lp::SolverOptions opts;
        opts.refactor_interval = interval;
        opts.warm = warm;
        const lp::LpResult res = lp::solve(p, opts);
        ASSERT_TRUE(matches_dense(p, res, dense))
            << "instance " << t << " interval " << interval
            << (warm == nullptr ? " cold"
                : warm == &random ? " random warm" : " shuffled warm");
        if (res.refactorizations > 1) ++refactorized;
      }
    }
  }
  EXPECT_GT(optimal_seen, 50);
  EXPECT_GT(refactorized, 300);
}

}  // namespace
}  // namespace ced
