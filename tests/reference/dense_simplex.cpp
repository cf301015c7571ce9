// Dense two-phase tableau simplex: the reference the production revised
// simplex (src/lp/revised.cpp) is tested against. Linked into the LP test
// targets only.

#include "reference/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace ced::reference {

using lp::kInfinity;
using lp::LpProblem;
using lp::LpResult;
using lp::Objective;
using lp::Relation;
using lp::SolverOptions;
using lp::Status;

namespace {

/// A non-optimal result after `iter` pivots.
LpResult stopped(Status status, int iter) {
  LpResult r;
  r.status = status;
  r.iterations = iter;
  return r;
}

/// Dense tableau simplex with upper-bounded variables.
///
/// Invariants: every nonbasic variable sits at 0 in its current orientation
/// (`flipped[j]` records reflection y' = ub - y); basic columns are unit
/// vectors; all b >= 0 up to tolerance.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : m_(rows), n_(cols), t_(static_cast<std::size_t>(rows) * cols, 0.0),
        b_(rows, 0.0), d_(cols, 0.0), ub_(cols, kInfinity),
        flipped_(cols, false), basis_(rows, -1) {}

  double& at(int i, int j) { return t_[static_cast<std::size_t>(i) * n_ + j]; }
  double at(int i, int j) const {
    return t_[static_cast<std::size_t>(i) * n_ + j];
  }

  int m_, n_;
  std::vector<double> t_;   // m x n coefficient tableau
  std::vector<double> b_;   // basic values
  std::vector<double> d_;   // reduced costs
  std::vector<double> ub_;  // upper bounds in current orientation
  std::vector<bool> flipped_;
  std::vector<int> basis_;  // basis_[i] = column basic in row i
  std::vector<bool> is_basic_;

  void rebuild_basic_flags() {
    is_basic_.assign(static_cast<std::size_t>(n_), false);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0) is_basic_[static_cast<std::size_t>(basis_[i])] = true;
    }
  }

  /// Reflects nonbasic column j (y' = ub - y); requires finite ub.
  void reflect_nonbasic(int j) {
    const double u = ub_[static_cast<std::size_t>(j)];
    for (int i = 0; i < m_; ++i) {
      b_[static_cast<std::size_t>(i)] -= at(i, j) * u;
      at(i, j) = -at(i, j);
    }
    d_[static_cast<std::size_t>(j)] = -d_[static_cast<std::size_t>(j)];
    flipped_[static_cast<std::size_t>(j)] = !flipped_[static_cast<std::size_t>(j)];
  }

  /// Rewrites basic row r so its basic variable is replaced by its
  /// complement (used when the leaving variable exits at its upper bound).
  void reflect_basic_row(int r) {
    const int l = basis_[static_cast<std::size_t>(r)];
    const double u = ub_[static_cast<std::size_t>(l)];
    b_[static_cast<std::size_t>(r)] = u - b_[static_cast<std::size_t>(r)];
    for (int j = 0; j < n_; ++j) {
      if (j != l) at(r, j) = -at(r, j);
    }
    flipped_[static_cast<std::size_t>(l)] = !flipped_[static_cast<std::size_t>(l)];
  }

  /// Gauss-Jordan pivot on (r, j); T[r][j] must be nonzero.
  ///
  /// The row updates are written over __restrict__ row pointers so the
  /// element-wise axpy loops vectorize (rows of t_ never alias each other
  /// for i != r). Plain mul+sub per element — no reduction, no FMA
  /// contraction — so the vectorized result is bit-identical to the scalar
  /// loop and the pivot sequence never depends on the compiler.
  void pivot(int r, int j) {
    const std::size_t n = static_cast<std::size_t>(n_);
    double* __restrict__ row_r = t_.data() + static_cast<std::size_t>(r) * n;
    const double p = row_r[static_cast<std::size_t>(j)];
    const double inv = 1.0 / p;
    for (std::size_t k = 0; k < n; ++k) row_r[k] *= inv;
    b_[static_cast<std::size_t>(r)] *= inv;
    row_r[static_cast<std::size_t>(j)] = 1.0;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      double* __restrict__ row_i = t_.data() + static_cast<std::size_t>(i) * n;
      const double f = row_i[static_cast<std::size_t>(j)];
      if (f == 0.0) continue;
      for (std::size_t k = 0; k < n; ++k) row_i[k] -= f * row_r[k];
      row_i[static_cast<std::size_t>(j)] = 0.0;
      b_[static_cast<std::size_t>(i)] -= f * b_[static_cast<std::size_t>(r)];
    }
    const double fd = d_[static_cast<std::size_t>(j)];
    if (fd != 0.0) {
      double* __restrict__ d = d_.data();
      for (std::size_t k = 0; k < n; ++k) d[k] -= fd * row_r[k];
      d[static_cast<std::size_t>(j)] = 0.0;
    }
    basis_[static_cast<std::size_t>(r)] = j;
  }

  /// Re-inversion: recomputes the tableau, the basic values and the
  /// reduced costs from the original rows `t0`/`b0` (m x n, before any
  /// pivot) for the current basis and orientation, discarding the rounding
  /// error the pivots accumulated. With s_j = -1 on reflected columns, the
  /// tableau is B^{-1} [s_j t0_j] and the basic values are
  /// B^{-1} (b0 - sum_{reflected j} t0_j ub_j), B being the oriented basic
  /// columns in row order; reduced costs follow from the oriented `cost`.
  /// Gauss-Jordan with partial pivoting. Returns false, leaving the
  /// tableau as it was, when the basis is numerically singular.
  bool reinvert(const std::vector<double>& t0, const std::vector<double>& b0,
                const std::vector<double>& cost) {
    const std::size_t n = static_cast<std::size_t>(n_);
    const std::size_t w = n + 1;  // augmented with the right-hand side
    std::vector<double> a(static_cast<std::size_t>(m_) * w);
    for (int i = 0; i < m_; ++i) {
      const double* src = t0.data() + static_cast<std::size_t>(i) * n;
      double* dst = a.data() + static_cast<std::size_t>(i) * w;
      double rhs = b0[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < n; ++j) {
        if (flipped_[j]) {
          dst[j] = -src[j];
          if (src[j] != 0.0) rhs -= src[j] * ub_[j];
        } else {
          dst[j] = src[j];
        }
      }
      dst[n] = rhs;
    }
    // Eliminate column basis_[i] on the free row where it is largest.
    std::vector<int> row_of(static_cast<std::size_t>(m_), -1);
    std::vector<char> used(static_cast<std::size_t>(m_), 0);
    for (int i = 0; i < m_; ++i) {
      const auto col =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
      int best = -1;
      double mag = 1e-11;
      for (int r = 0; r < m_; ++r) {
        const double v = std::abs(a[static_cast<std::size_t>(r) * w + col]);
        if (used[static_cast<std::size_t>(r)] == 0 && v > mag) {
          mag = v;
          best = r;
        }
      }
      if (best < 0) return false;
      used[static_cast<std::size_t>(best)] = 1;
      row_of[static_cast<std::size_t>(i)] = best;
      double* __restrict__ pr = a.data() + static_cast<std::size_t>(best) * w;
      const double inv = 1.0 / pr[col];
      for (std::size_t k = 0; k < w; ++k) pr[k] *= inv;
      pr[col] = 1.0;
      for (int r = 0; r < m_; ++r) {
        if (r == best) continue;
        double* __restrict__ ar = a.data() + static_cast<std::size_t>(r) * w;
        const double f = ar[col];
        if (f == 0.0) continue;
        for (std::size_t k = 0; k < w; ++k) ar[k] -= f * pr[k];
        ar[col] = 0.0;
      }
    }
    for (int i = 0; i < m_; ++i) {
      const auto r =
          static_cast<std::size_t>(row_of[static_cast<std::size_t>(i)]);
      const double* src = a.data() + r * w;
      std::copy(src, src + n, t_.data() + static_cast<std::size_t>(i) * n);
      // Basic values are >= 0 in the current orientation; clear the
      // round-off that makes a degenerate one slightly negative.
      const double v = src[n];
      b_[static_cast<std::size_t>(i)] = v < 0.0 && v > -1e-9 ? 0.0 : v;
    }
    for (std::size_t j = 0; j < n; ++j) {
      d_[j] = flipped_[j] ? -cost[j] : cost[j];
    }
    for (int i = 0; i < m_; ++i) {
      const auto l =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
      const double cl = flipped_[l] ? -cost[l] : cost[l];
      if (cl == 0.0) continue;
      const double* row = t_.data() + static_cast<std::size_t>(i) * n;
      for (std::size_t k = 0; k < n; ++k) d_[k] -= cl * row[k];
    }
    for (int i = 0; i < m_; ++i) {
      d_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = 0.0;
    }
    return true;
  }
};

enum class StepResult { kImproved, kOptimal, kUnbounded };

/// One simplex iteration; `bland` forces Bland's anti-cycling rule.
StepResult step(Tableau& tb, double eps, bool bland) {
  tb.rebuild_basic_flags();
  // Entering column: negative reduced cost.
  int enter = -1;
  double best = -eps;
  for (int j = 0; j < tb.n_; ++j) {
    if (tb.is_basic_[static_cast<std::size_t>(j)]) continue;
    const double dj = tb.d_[static_cast<std::size_t>(j)];
    if (dj < -eps) {
      if (bland) {
        enter = j;
        break;
      }
      if (dj < best) {
        best = dj;
        enter = j;
      }
    }
  }
  if (enter < 0) return StepResult::kOptimal;

  // Ratio test. Movement delta >= 0 of the entering variable.
  double limit = tb.ub_[static_cast<std::size_t>(enter)];
  int leave_row = -1;
  bool leave_at_upper = false;
  for (int i = 0; i < tb.m_; ++i) {
    const double w = tb.at(i, enter);
    const double bi = tb.b_[static_cast<std::size_t>(i)];
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    const double ubl = tb.ub_[static_cast<std::size_t>(l)];
    if (w > eps) {
      const double ratio = bi / w;
      if (ratio < limit - 1e-12 ||
          (leave_row >= 0 && ratio < limit + 1e-12 && bland &&
           l < tb.basis_[static_cast<std::size_t>(leave_row)])) {
        limit = ratio < limit ? ratio : limit;
        leave_row = i;
        leave_at_upper = false;
      }
    } else if (w < -eps && std::isfinite(ubl)) {
      const double ratio = (ubl - bi) / (-w);
      if (ratio < limit - 1e-12 ||
          (leave_row >= 0 && ratio < limit + 1e-12 && bland &&
           l < tb.basis_[static_cast<std::size_t>(leave_row)])) {
        limit = ratio < limit ? ratio : limit;
        leave_row = i;
        leave_at_upper = true;
      }
    }
  }

  if (!std::isfinite(limit)) return StepResult::kUnbounded;

  if (leave_row < 0) {
    // Bound flip: entering variable moves to its (finite) upper bound.
    tb.reflect_nonbasic(enter);
    return StepResult::kImproved;
  }

  if (leave_at_upper) tb.reflect_basic_row(leave_row);
  tb.pivot(leave_row, enter);
  return StepResult::kImproved;
}

double phase_objective(const Tableau& tb, const std::vector<double>& cost) {
  double z = 0.0;
  for (int i = 0; i < tb.m_; ++i) {
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    double c = cost[static_cast<std::size_t>(l)];
    if (tb.flipped_[static_cast<std::size_t>(l)]) c = -c;  // oriented cost sign
    z += c * tb.b_[static_cast<std::size_t>(i)];
  }
  return z;
}

}  // namespace

LpResult dense_solve(const LpProblem& p, const SolverOptions& opts) {
  const int nv = p.num_variables();
  const int m = p.num_constraints();

  // Column layout: [problem vars | slack/surplus | artificials].
  // A row whose slack enters with coefficient +1 (after sign normalization)
  // can use that slack as its initial basic variable and needs no
  // artificial — in the library's cover LPs this removes nearly all of
  // phase 1.
  int num_slacks = 0;
  for (Relation r : p.relations()) {
    if (r != Relation::kEq) ++num_slacks;
  }

  // Shift problem variables to [0, u - l]; compute adjusted rhs.
  std::vector<double> shifted_rhs = p.rhs();
  for (int i = 0; i < m; ++i) {
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      shifted_rhs[static_cast<std::size_t>(i)] -=
          c * p.lower()[static_cast<std::size_t>(v)];
    }
  }

  std::vector<bool> needs_artificial(static_cast<std::size_t>(m), true);
  int num_artificials = 0;
  for (int i = 0; i < m; ++i) {
    const bool negate = shifted_rhs[static_cast<std::size_t>(i)] < 0.0;
    const Relation rel = p.relations()[static_cast<std::size_t>(i)];
    const bool slack_basis =
        (rel == Relation::kLe && !negate) || (rel == Relation::kGe && negate);
    needs_artificial[static_cast<std::size_t>(i)] = !slack_basis;
    if (!slack_basis) ++num_artificials;
  }

  const int n = nv + num_slacks + num_artificials;
  Tableau tb(m, n);
  for (int j = 0; j < nv; ++j) {
    tb.ub_[static_cast<std::size_t>(j)] =
        p.upper()[static_cast<std::size_t>(j)] -
        p.lower()[static_cast<std::size_t>(j)];
  }

  int slack_col = nv;
  int art_col = nv + num_slacks;
  for (int i = 0; i < m; ++i) {
    const bool negate = shifted_rhs[static_cast<std::size_t>(i)] < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      tb.at(i, v) += sign * c;
    }
    const Relation rel = p.relations()[static_cast<std::size_t>(i)];
    int slack_here = -1;
    if (rel != Relation::kEq) {
      slack_here = slack_col;
      tb.at(i, slack_col) = sign * (rel == Relation::kLe ? 1.0 : -1.0);
      ++slack_col;
    }
    tb.b_[static_cast<std::size_t>(i)] =
        sign * shifted_rhs[static_cast<std::size_t>(i)];
    if (needs_artificial[static_cast<std::size_t>(i)]) {
      tb.at(i, art_col) = 1.0;
      tb.basis_[static_cast<std::size_t>(i)] = art_col;
      ++art_col;
    } else {
      tb.basis_[static_cast<std::size_t>(i)] = slack_here;
    }
  }

  // The original rows, kept for periodic re-inversion: a long degenerate
  // pivot sequence otherwise accumulates enough rounding error to end
  // "optimal" at an infeasible point, or to cycle under Bland's rule on
  // noise-level reduced costs.
  const std::vector<double> t0 = tb.t_;
  const std::vector<double> b0 = tb.b_;
  const int reinvert_interval = std::max(m, 64);
  int since_reinvert = 0;
  // One simplex step; an "optimal" verdict reached on an aged tableau is
  // confirmed on a freshly re-inverted one before it is believed.
  auto checked_step = [&](const std::vector<double>& cost, bool bland) {
    if (since_reinvert >= reinvert_interval) {
      since_reinvert = 0;
      tb.reinvert(t0, b0, cost);
    }
    StepResult sr = step(tb, opts.eps, bland);
    if (sr == StepResult::kOptimal && since_reinvert > 0) {
      since_reinvert = 0;
      if (tb.reinvert(t0, b0, cost)) sr = step(tb, opts.eps, bland);
    }
    if (sr == StepResult::kImproved) ++since_reinvert;
    return sr;
  };

  int iter = 0;
  int stall = 0;
  const bool has_deadline =
      opts.deadline != std::chrono::steady_clock::time_point::max();
  auto out_of_time = [&] {
    return has_deadline && (iter & 255) == 0 &&
           std::chrono::steady_clock::now() >= opts.deadline;
  };

  // ---- Phase 1: minimize sum of artificials (skipped when none exist).
  std::vector<double> cost1(static_cast<std::size_t>(n), 0.0);
  if (num_artificials > 0) {
    for (int j = nv + num_slacks; j < n; ++j) {
      cost1[static_cast<std::size_t>(j)] = 1.0;
    }
    // Price out the basis: artificial basic rows have cost 1.
    for (int j = 0; j < n; ++j) {
      double d = cost1[static_cast<std::size_t>(j)];
      for (int i = 0; i < m; ++i) {
        if (needs_artificial[static_cast<std::size_t>(i)]) d -= tb.at(i, j);
      }
      tb.d_[static_cast<std::size_t>(j)] = d;
    }
    for (int i = 0; i < m; ++i) {
      tb.d_[static_cast<std::size_t>(tb.basis_[static_cast<std::size_t>(i)])] =
          0.0;
    }

    double last_obj = phase_objective(tb, cost1);
    for (;; ++iter) {
      if (iter > opts.max_iterations) {
        return stopped(Status::kIterLimit, iter);
      }
      if (out_of_time()) return stopped(Status::kTimeLimit, iter);
      const StepResult sr = checked_step(cost1, stall > 2 * (m + n));
      if (sr == StepResult::kOptimal) break;
      if (sr == StepResult::kUnbounded) break;  // cannot happen in phase 1
      const double obj = phase_objective(tb, cost1);
      if (obj < last_obj - 1e-12) {
        stall = 0;
        last_obj = obj;
      } else {
        ++stall;
      }
    }
    if (phase_objective(tb, cost1) > 1e-6) {
      return stopped(Status::kInfeasible, iter);
    }

    // Pin artificials to zero so they never re-enter with positive value.
    for (int j = nv + num_slacks; j < n; ++j) {
      if (tb.flipped_[static_cast<std::size_t>(j)]) {
        // Artificial sits at its "upper" orientation; its value is ~0.
        tb.flipped_[static_cast<std::size_t>(j)] = false;
      }
      tb.ub_[static_cast<std::size_t>(j)] = 0.0;
    }
  }

  // ---- Phase 2: original objective (as minimization).
  const double obj_sign = p.sense() == Objective::kMaximize ? -1.0 : 1.0;
  std::vector<double> cost2(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < nv; ++j) {
    cost2[static_cast<std::size_t>(j)] =
        obj_sign * p.objective()[static_cast<std::size_t>(j)];
  }
  for (int j = 0; j < n; ++j) {
    tb.d_[static_cast<std::size_t>(j)] =
        tb.flipped_[static_cast<std::size_t>(j)]
            ? -cost2[static_cast<std::size_t>(j)]
            : cost2[static_cast<std::size_t>(j)];
  }
  tb.rebuild_basic_flags();
  for (int i = 0; i < m; ++i) {
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    const double dl = tb.d_[static_cast<std::size_t>(l)];
    if (dl == 0.0) continue;
    for (int k = 0; k < tb.n_; ++k) {
      tb.d_[static_cast<std::size_t>(k)] -= dl * tb.at(i, k);
    }
    tb.d_[static_cast<std::size_t>(l)] = 0.0;
  }

  stall = 0;
  double last_obj = phase_objective(tb, cost2);
  for (;; ++iter) {
    if (iter > opts.max_iterations) {
      return stopped(Status::kIterLimit, iter);
    }
    if (out_of_time()) return stopped(Status::kTimeLimit, iter);
    const StepResult sr = checked_step(cost2, stall > 2 * (m + n));
    if (sr == StepResult::kOptimal) break;
    if (sr == StepResult::kUnbounded) {
      return stopped(Status::kUnbounded, iter);
    }
    const double obj = phase_objective(tb, cost2);
    if (obj < last_obj - 1e-12) {
      stall = 0;
      last_obj = obj;
    } else {
      ++stall;
    }
  }

  // ---- Extract solution in original coordinates.
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    y[static_cast<std::size_t>(tb.basis_[static_cast<std::size_t>(i)])] =
        tb.b_[static_cast<std::size_t>(i)];
  }
  LpResult res;
  res.status = Status::kOptimal;
  res.iterations = iter;
  res.x.resize(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    double v = y[static_cast<std::size_t>(j)];
    if (tb.flipped_[static_cast<std::size_t>(j)]) {
      v = tb.ub_[static_cast<std::size_t>(j)] - v;
    }
    double x = v + p.lower()[static_cast<std::size_t>(j)];
    // Clamp tiny numerical noise back into the box.
    if (x < p.lower()[static_cast<std::size_t>(j)]) {
      x = p.lower()[static_cast<std::size_t>(j)];
    }
    if (x > p.upper()[static_cast<std::size_t>(j)]) {
      x = p.upper()[static_cast<std::size_t>(j)];
    }
    res.x[static_cast<std::size_t>(j)] = x;
  }
  res.objective = 0.0;
  for (int j = 0; j < nv; ++j) {
    res.objective += p.objective()[static_cast<std::size_t>(j)] *
                     res.x[static_cast<std::size_t>(j)];
  }
  return res;
}

namespace {

/// Index of the first constraint `x` violates beyond a scaled 1e-6
/// tolerance, or -1 when x satisfies them all.
int violated_row(const LpProblem& p, const std::vector<double>& x) {
  for (int i = 0; i < p.num_constraints(); ++i) {
    double lhs = 0.0, scale = 1.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      lhs += c * x[static_cast<std::size_t>(v)];
      scale += std::abs(c);
    }
    const double rhs = p.rhs()[static_cast<std::size_t>(i)];
    const double tol = 1e-6 * (scale + std::abs(rhs));
    bool ok = true;
    switch (p.relations()[static_cast<std::size_t>(i)]) {
      case Relation::kLe: ok = lhs <= rhs + tol; break;
      case Relation::kGe: ok = lhs >= rhs - tol; break;
      case Relation::kEq: ok = std::abs(lhs - rhs) <= tol; break;
    }
    if (!ok) return i;
  }
  return -1;
}

}  // namespace

::testing::AssertionResult agrees_with_dense(const LpProblem& p,
                                             const LpResult& res,
                                             const SolverOptions& opts,
                                             bool* inconclusive) {
  if (inconclusive != nullptr) *inconclusive = false;
  auto no_verdict = [&] {
    if (inconclusive != nullptr) *inconclusive = true;
    return ::testing::AssertionSuccess();
  };
  if (res.status == Status::kIterLimit || res.status == Status::kTimeLimit) {
    return no_verdict();  // budget stops are not certificates
  }
  if (res.status == Status::kOptimal) {
    if (const int row = violated_row(p, res.x); row >= 0) {
      return ::testing::AssertionFailure()
             << "optimal solution violates row " << row;
    }
  }
  SolverOptions oracle_opts;
  oracle_opts.max_iterations = opts.max_iterations;
  oracle_opts.eps = opts.eps;
  const LpResult oracle = dense_solve(p, oracle_opts);
  if (oracle.status == Status::kIterLimit ||
      oracle.status == Status::kTimeLimit) {
    return no_verdict();
  }
  if (oracle.status == Status::kOptimal && violated_row(p, oracle.x) >= 0) {
    // Rounding error the periodic re-inversion did not catch left the
    // tableau "optimal" at a point that is not even feasible: no
    // certificate either.
    return no_verdict();
  }
  if (oracle.status != res.status) {
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(res.status) << " vs dense "
           << static_cast<int>(oracle.status);
  }
  if (res.status != Status::kOptimal) return ::testing::AssertionSuccess();
  const double obj_tol = 1e-6 * (1.0 + std::abs(oracle.objective));
  if (std::abs(oracle.objective - res.objective) > obj_tol) {
    return ::testing::AssertionFailure() << "objective " << res.objective
                                         << " vs dense " << oracle.objective;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ced::reference
