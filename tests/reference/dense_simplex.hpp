#pragma once

// Test-side LP reference: the dense two-phase tableau simplex that
// lp::solve (the sparse revised simplex) must agree with.

#include <gtest/gtest.h>

#include "lp/simplex.hpp"

namespace ced::reference {

/// Dense two-phase tableau simplex with upper-bounded variables and Bland
/// anti-cycling; re-inverts its tableau from the original rows every
/// max(m, 64) pivots and before accepting "optimal". Deterministic;
/// ignores warm starts and never returns a basis.
lp::LpResult dense_solve(const lp::LpProblem& p,
                         const lp::SolverOptions& opts = {});

/// Checks that an optimal `res.x` satisfies every constraint, then
/// re-solves `p` with dense_solve and checks that `res` agrees on status
/// and optimal objective. Degenerate problems may yield different optimal
/// vertices, so x itself is not compared. When either side gives no
/// certificate — a budget stop, or a dense "optimum" that violates the
/// constraints after accumulated rounding error — the check passes and
/// sets `*inconclusive` (when given), so callers can bound how often the
/// reference abstains.
::testing::AssertionResult agrees_with_dense(const lp::LpProblem& p,
                                             const lp::LpResult& res,
                                             const lp::SolverOptions& opts = {},
                                             bool* inconclusive = nullptr);

}  // namespace ced::reference
