// Error type of the small dense solvers (MatN, small_solve, the grade-EKF
// kernel and the test oracles in tests/oracles/).
#pragma once

#include <stdexcept>
#include <string>

namespace rge::math {

/// Thrown when an inversion/factorization meets a (numerically) singular
/// or non-positive-definite matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace rge::math
