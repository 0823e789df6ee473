#pragma once
// LU factorization with partial pivoting for general square solves
// (used by Newton steps on non-SPD Hessians in completion/generalized).

#include <optional>

#include "linalg/matrix.hpp"

namespace cpr::linalg {

/// Solves A x = b for general square A via LU with partial pivoting.
/// Returns nullopt if A is numerically singular.
std::optional<Vector> solve_lu(Matrix a, Vector b);

}  // namespace cpr::linalg
