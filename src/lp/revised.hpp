#pragma once

// Internal entry point of the sparse revised simplex (see revised.cpp).
// Callers go through lp::solve, its observability wrapper.

#include "lp/simplex.hpp"

namespace ced::lp {

/// Bounded-variable revised primal simplex over CSC columns. Deterministic.
/// Honors SolverOptions::warm / want_basis / refactor_interval; statuses
/// and tolerances match the dense reference in tests/reference/.
LpResult revised_solve(const LpProblem& p, const SolverOptions& opts);

}  // namespace ced::lp
