#include "oracles/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace rge::oracles {

namespace {

[[noreturn]] void throw_dim(const char* op) {
  throw std::invalid_argument(std::string("dimension mismatch in ") + op);
}

}  // namespace

// ---------------------------------------------------------------- Vec ----

Vec& Vec::operator+=(const Vec& o) {
  if (size() != o.size()) throw_dim("Vec::operator+=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& o) {
  if (size() != o.size()) throw_dim("Vec::operator-=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

double Vec::dot(const Vec& o) const {
  if (size() != o.size()) throw_dim("Vec::dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * o.data_[i];
  return acc;
}

double Vec::inf_norm() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

// ---------------------------------------------------------------- Mat ----

Mat::Mat(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Mat: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Mat Mat::identity(std::size_t n) {
  Mat m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Mat Mat::diag(const Vec& d) {
  Mat m(d.size(), d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

void Mat::check_same_shape(const Mat& o, const char* op) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) throw_dim(op);
}

Mat& Mat::operator+=(const Mat& o) {
  check_same_shape(o, "Mat::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Mat& Mat::operator-=(const Mat& o) {
  check_same_shape(o, "Mat::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Mat Mat::operator*(const Mat& o) const {
  if (cols_ != o.rows_) throw_dim("Mat::operator*(Mat)");
  Mat out(rows_, o.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < o.cols_; ++j) {
        out(i, j) += aik * o(k, j);
      }
    }
  }
  return out;
}

Vec Mat::operator*(const Vec& v) const {
  if (cols_ != v.size()) throw_dim("Mat::operator*(Vec)");
  Vec out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Mat Mat::transpose() const {
  Mat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Mat Mat::inverse() const {
  if (!square()) throw_dim("Mat::inverse");
  const std::size_t n = rows_;
  Mat a(*this);
  Mat inv = Mat::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest remaining pivot in this column.
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
    const double d = a(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      a(col, j) /= d;
      inv(col, j) /= d;
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

namespace {

// LU decomposition with partial pivoting; throws SingularMatrixError.
// `lu` is overwritten with L (unit diagonal, below) and U (on/above
// diagonal); `perm` receives the row permutation.
void lu_decompose(Mat& lu, std::vector<std::size_t>& perm) {
  const std::size_t n = lu.rows();
  perm.resize(n);
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
}

}  // namespace

Mat Mat::cholesky() const {
  if (!square()) throw_dim("Mat::cholesky");
  const std::size_t n = rows_;
  Mat l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        if (acc <= 0.0) {
          throw SingularMatrixError("Mat::cholesky: not positive definite");
        }
        l(i, i) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return l;
}

Vec Mat::solve(const Vec& b) const {
  if (!square()) throw_dim("Mat::solve");
  if (b.size() != rows_) throw_dim("Mat::solve rhs");
  Mat lu(*this);
  std::vector<std::size_t> perm;
  lu_decompose(lu, perm);
  const std::size_t n = rows_;
  // Forward substitution on permuted rhs (L has unit diagonal).
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
  return x;
}

bool Mat::approx_equal(const Mat& o, double tol) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - o.data_[i]) > tol) return false;
  }
  return true;
}

void Mat::symmetrize() {
  if (!square()) throw_dim("Mat::symmetrize");
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
  }
}

double quadratic_form(const Mat& a, const Vec& x) {
  return x.dot(a * x);
}

}  // namespace rge::oracles
