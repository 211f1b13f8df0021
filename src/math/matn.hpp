// Fixed-size (compile-time dimension) matrix/vector algebra and EKF steps.
//
// MatN/VecN keep their storage inline (std::array) in the style of
// Miniflie's `ekf.hpp` fixed `float dat[EKF_N][EKF_N]` matrices, so a
// filter predict+update costs zero heap allocations and the optimizer can
// unroll every loop over the compile-time bounds. EkfN is the generic
// production EKF: run_grade_rts, run_grade_ekf_with_baro and the
// altitude-EKF baseline run on it (GradeEkf and GradeEkfBatch are
// hand-unrolled 2-state specializations of the same arithmetic).
//
// Bit-compatibility contract: every operation below replicates the
// dynamic oracle in tests/oracles/matrix.hpp and kalman.hpp *line by line*
// — the same loop structure, accumulation order and association,
// including the `aik == 0.0` skip in operator*, the partial-pivot
// selection in inverse()/solve(), and the 0.5*(a+b) symmetrize — so the
// parity tests (test_matn against randomized inputs, test_grade_ekf,
// test_baselines) can demand exact equality.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <utility>

#include "math/singular_matrix_error.hpp"

namespace rge::math {

/// Fixed-size column vector of doubles (value-initialized to zero).
template <std::size_t N>
struct VecN {
  std::array<double, N> d{};

  static constexpr std::size_t size() { return N; }
  double& operator[](std::size_t i) { return d[i]; }
  double operator[](std::size_t i) const { return d[i]; }

  VecN& operator+=(const VecN& o) {
    for (std::size_t i = 0; i < N; ++i) d[i] += o.d[i];
    return *this;
  }
  VecN& operator-=(const VecN& o) {
    for (std::size_t i = 0; i < N; ++i) d[i] -= o.d[i];
    return *this;
  }
  friend VecN operator+(VecN a, const VecN& b) { return a += b; }
  friend VecN operator-(VecN a, const VecN& b) { return a -= b; }

  double dot(const VecN& o) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < N; ++i) acc += d[i] * o.d[i];
    return acc;
  }
};

/// Fixed-size row-major matrix of doubles (value-initialized to zero).
template <std::size_t R, std::size_t C>
struct MatN {
  std::array<double, R * C> d{};

  static constexpr std::size_t rows() { return R; }
  static constexpr std::size_t cols() { return C; }
  double& operator()(std::size_t r, std::size_t c) { return d[r * C + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return d[r * C + c];
  }

  static MatN identity()
    requires(R == C)
  {
    MatN m;
    for (std::size_t i = 0; i < R; ++i) m(i, i) = 1.0;
    return m;
  }

  MatN& operator+=(const MatN& o) {
    for (std::size_t i = 0; i < R * C; ++i) d[i] += o.d[i];
    return *this;
  }
  MatN& operator-=(const MatN& o) {
    for (std::size_t i = 0; i < R * C; ++i) d[i] -= o.d[i];
    return *this;
  }
  friend MatN operator+(MatN a, const MatN& b) { return a += b; }
  friend MatN operator-(MatN a, const MatN& b) { return a -= b; }

  /// Matrix product, mirroring the oracle Mat::operator*(Mat): i/k/j loop
  /// order with the `aik == 0.0` row-term skip (identical accumulation
  /// sequence).
  template <std::size_t C2>
  MatN<R, C2> operator*(const MatN<C, C2>& o) const {
    MatN<R, C2> out;
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t k = 0; k < C; ++k) {
        const double aik = (*this)(i, k);
        if (aik == 0.0) continue;
        for (std::size_t j = 0; j < C2; ++j) {
          out(i, j) += aik * o(k, j);
        }
      }
    }
    return out;
  }

  /// Matrix-vector product, mirroring Mat::operator*(Vec) (row accumulator).
  VecN<R> operator*(const VecN<C>& v) const {
    VecN<R> out;
    for (std::size_t i = 0; i < R; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < C; ++j) acc += (*this)(i, j) * v[j];
      out[i] = acc;
    }
    return out;
  }

  MatN<C, R> transpose() const {
    MatN<C, R> out;
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = 0; j < C; ++j) out(j, i) = (*this)(i, j);
    }
    return out;
  }

  /// Gauss-Jordan inverse with partial pivoting, mirroring Mat::inverse().
  MatN inverse() const
    requires(R == C)
  {
    constexpr std::size_t n = R;
    MatN a(*this);
    MatN inv = MatN::identity();
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(a(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::abs(a(r, col)) > best) {
          best = std::abs(a(r, col));
          pivot = r;
        }
      }
      if (best < 1e-300) {
        throw SingularMatrixError("Mat::inverse: singular matrix");
      }
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(a(col, j), a(pivot, j));
          std::swap(inv(col, j), inv(pivot, j));
        }
      }
      const double di = a(col, col);
      for (std::size_t j = 0; j < n; ++j) {
        a(col, j) /= di;
        inv(col, j) /= di;
      }
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = a(r, col);
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) {
          a(r, j) -= f * a(col, j);
          inv(r, j) -= f * inv(col, j);
        }
      }
    }
    return inv;
  }

  /// LU solve with partial pivoting, mirroring Mat::solve(Vec).
  VecN<R> solve(const VecN<R>& b) const
    requires(R == C)
  {
    constexpr std::size_t n = R;
    MatN lu(*this);
    std::array<std::size_t, n> perm;
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(lu(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::abs(lu(r, col)) > best) {
          best = std::abs(lu(r, col));
          pivot = r;
        }
      }
      if (best < 1e-300) {
        throw SingularMatrixError("lu_decompose: singular matrix");
      }
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu(col, j), lu(pivot, j));
        std::swap(perm[col], perm[pivot]);
      }
      for (std::size_t r = col + 1; r < n; ++r) {
        const double f = lu(r, col) / lu(col, col);
        lu(r, col) = f;
        for (std::size_t j = col + 1; j < n; ++j) lu(r, j) -= f * lu(col, j);
      }
    }
    // Forward substitution on permuted rhs (L has unit diagonal).
    VecN<R> y;
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[perm[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * y[j];
      y[i] = acc;
    }
    // Back substitution with U.
    VecN<R> x;
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
      x[ii] = acc / lu(ii, ii);
    }
    return x;
  }

  /// Mirror of Mat::symmetrize(): average each off-diagonal pair.
  void symmetrize()
    requires(R == C)
  {
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = i + 1; j < C; ++j) {
        const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
        (*this)(i, j) = avg;
        (*this)(j, i) = avg;
      }
    }
  }
};

/// Mirror of the oracle quadratic_form: x . (A x).
template <std::size_t N>
double quadratic_form_n(const MatN<N, N>& a, const VecN<N>& x) {
  return x.dot(a * x);
}

/// Fixed-size EKF predict/update steps mirroring the oracle EKF
/// (tests/oracles/kalman.hpp).
///
/// The oracle takes std::function process/measurement models; at
/// compile-time dimensions the caller instead evaluates the model at the
/// prior state itself and passes the propagated state and Jacobian in
/// (identical inputs, identical arithmetic). `update` returns false when
/// the NIS gate rejects the measurement, like the oracle's
/// UpdateResult::accepted.
template <std::size_t N>
class EkfN {
 public:
  EkfN() = default;
  EkfN(const VecN<N>& initial_state, const MatN<N, N>& initial_cov)
      : x_(initial_state), p_(initial_cov) {}

  const VecN<N>& state() const { return x_; }
  const MatN<N, N>& covariance() const { return p_; }

  /// Predict step: the caller supplies x_next = f(x, u) and
  /// f_jac = df/dx evaluated at the *prior* state.
  void predict(const VecN<N>& x_next, const MatN<N, N>& f_jac,
               const MatN<N, N>& q) {
    x_ = x_next;
    p_ = f_jac * p_ * f_jac.transpose() + q;
    p_.symmetrize();
  }

  /// Update step. `predicted` is h(x) at the prior state and `h_jac` =
  /// dh/dx there; `nis_out`, when given, receives the normalized
  /// innovation squared (also for a gated measurement). Throws
  /// SingularMatrixError when S is numerically singular, exactly like the
  /// oracle.
  template <std::size_t M>
  bool update(const VecN<M>& predicted, const MatN<M, N>& h_jac,
              const MatN<M, M>& r, const VecN<M>& z, double gate_nis = 0.0,
              double* nis_out = nullptr) {
    const VecN<M> innovation = z - predicted;
    const MatN<M, M> innovation_cov = h_jac * p_ * h_jac.transpose() + r;
    const MatN<M, M> s_inv = innovation_cov.inverse();
    const double nis = quadratic_form_n(s_inv, innovation);
    if (nis_out != nullptr) *nis_out = nis;

    if (gate_nis > 0.0 && nis > gate_nis) return false;

    const MatN<N, M> gain = p_ * h_jac.transpose() * s_inv;
    x_ += gain * innovation;

    // Joseph form: P = (I - K H) P (I - K H)^T + K R K^T.
    const MatN<N, N> ikh = MatN<N, N>::identity() - gain * h_jac;
    p_ = ikh * p_ * ikh.transpose() + gain * r * gain.transpose();
    p_.symmetrize();
    return true;
  }

 private:
  VecN<N> x_{};
  MatN<N, N> p_{};
};

}  // namespace rge::math
