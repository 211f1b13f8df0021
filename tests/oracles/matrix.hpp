// Test oracle: dense dynamic-size matrix and vector algebra. The fixed-size
// math::MatN/EkfN and math::detail::solve_small replicate it loop for loop;
// test_matn pins them bit for bit. Operations throw std::invalid_argument
// on a dimension mismatch and math::SingularMatrixError on singular input.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "math/singular_matrix_error.hpp"

namespace rge::oracles {

using math::SingularMatrixError;

/// Dense column vector of doubles.
class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vec(std::initializer_list<double> init) : data_(init) {}

  std::size_t size() const { return data_.size(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  Vec& operator+=(const Vec& o);
  Vec& operator-=(const Vec& o);

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }

  double dot(const Vec& o) const;
  /// Largest absolute component; 0 for the empty vector.
  double inf_norm() const;

  bool operator==(const Vec& o) const = default;

 private:
  std::vector<double> data_;
};

/// Dense row-major matrix of doubles.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Row-by-row construction: Mat m{{1,2},{3,4}};
  Mat(std::initializer_list<std::initializer_list<double>> rows);

  static Mat identity(std::size_t n);
  /// Square matrix with `d` on the diagonal.
  static Mat diag(const Vec& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Mat& operator+=(const Mat& o);
  Mat& operator-=(const Mat& o);

  friend Mat operator+(Mat a, const Mat& b) { return a += b; }
  friend Mat operator-(Mat a, const Mat& b) { return a -= b; }

  Mat operator*(const Mat& o) const;
  Vec operator*(const Vec& v) const;

  Mat transpose() const;

  /// Gauss-Jordan inverse with partial pivoting. Throws SingularMatrixError.
  Mat inverse() const;
  /// Lower Cholesky factor L with A = L*L^T. Throws SingularMatrixError if
  /// the matrix is not (numerically) symmetric positive definite.
  Mat cholesky() const;
  /// Solve A*x = b via LU with partial pivoting. Throws SingularMatrixError.
  Vec solve(const Vec& b) const;

  /// True if max |a_ij - b_ij| <= tol (same shape required).
  bool approx_equal(const Mat& o, double tol = 1e-12) const;
  /// Symmetrize in place: A <- (A + A^T)/2. Requires square.
  void symmetrize();

  bool operator==(const Mat& o) const = default;

 private:
  void check_same_shape(const Mat& o, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Quadratic form x^T * A * x (A square, dims must match).
double quadratic_form(const Mat& a, const Vec& x);

}  // namespace rge::oracles
