#include "math/loess_batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/simd.hpp"
#include "math/small_solve.hpp"
#include "math/stats.hpp"

namespace rge::math {

namespace {

#if RGE_SIMD_ENABLED

double tricube(double u) {
  const double a = 1.0 - u * u * u;
  return a <= 0.0 ? 0.0 : a * a * a;
}

double bisquare(double u) {
  const double a = 1.0 - u * u;
  return a <= 0.0 ? 0.0 : a * a;
}

#endif  // RGE_SIMD_ENABLED

}  // namespace

std::vector<double> loess_fit_batch(const LoessConfig& cfg,
                                    std::span<const double> x,
                                    std::span<const double> ys,
                                    std::size_t series) {
  const LoessSmoother smoother(cfg);  // validates the config like fit()
  const std::size_t n = x.size();
  if (ys.size() != n * series) {
    throw std::invalid_argument("loess_fit_batch: ys size mismatch");
  }
  if (series == 0) return {};

#if !RGE_SIMD_ENABLED
  // Scalar fallback: per-series LoessSmoother::fit, bit-identical to the
  // scalar smoother everywhere.
  std::vector<double> out(n * series, 0.0);
  for (std::size_t b = 0; b < series; ++b) {
    const std::vector<double> fitted = smoother.fit(x, ys.subspan(b * n, n));
    std::copy(fitted.begin(), fitted.end(), out.begin() + b * n);
  }
  return out;
#else
  std::vector<double> out(n * series, 0.0);
  if (n < 2) {
    std::copy(ys.begin(), ys.end(), out.begin());
    return out;
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (x[i] < x[i - 1]) {
      throw std::invalid_argument("LoessSmoother::fit: x must be sorted");
    }
  }

  const std::size_t B = series;
  const int p = cfg.degree + 1;
  const std::size_t up = static_cast<std::size_t>(p);
  const std::size_t k = std::max<std::size_t>(
      static_cast<std::size_t>(cfg.degree) + 2,
      static_cast<std::size_t>(std::ceil(cfg.span * static_cast<double>(n))));
  const std::size_t window = std::min(n, k);

  // Lane-major (SoA) transposes: yt[j*B + b] so per-point lane loops run
  // over contiguous memory.
  std::vector<double> yt(n * B);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < n; ++j) yt[j * B + b] = ys[b * n + j];
  }
  std::vector<double> fitted_t(n * B, 0.0);
  std::vector<double> rob_t;  // robustness, lane-major; empty on pass one
  std::vector<double> w_base(window);
  std::vector<double> atb(up * B);
  std::vector<double> yv(up * B);
  std::vector<double> xv(up * B);
  std::vector<double> abs_res(n);

  for (int iter = 0; iter <= cfg.robust_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      // Window selection: identical to LoessSmoother::fit_at.
      std::size_t lo = i >= window / 2 ? i - window / 2 : 0;
      if (lo + window > n) lo = n - window;
      while (lo + window < n && x[lo + window] - x[i] < x[i] - x[lo]) {
        ++lo;
      }
      while (lo > 0 && x[i] - x[lo - 1] < x[lo + window - 1] - x[i]) {
        --lo;
      }
      const std::size_t hi = lo + window;  // exclusive

      double max_dist = 0.0;
      for (std::size_t j = lo; j < hi; ++j) {
        max_dist = std::max(max_dist, std::abs(x[j] - x[i]));
      }
      if (max_dist <= 0.0) max_dist = 1.0;

      if (rob_t.empty()) {
        // Non-robust pass: weights and the normal matrix are shared by
        // every lane; only atb differs. Accumulate ata once, factor once,
        // substitute with lane-vectorized loops.
        double ata[9] = {};
        std::fill(atb.begin(), atb.begin() + static_cast<std::ptrdiff_t>(
                                                 up * B),
                  0.0);
        for (std::size_t j = lo; j < hi; ++j) {
          const double d = std::abs(x[j] - x[i]) / max_dist;
          const double w = tricube(d);
          if (w <= 0.0) continue;
          const double dx = x[j] - x[i];
          const double basis[3] = {1.0, dx, dx * dx};
          const double* yj = &yt[j * B];
          for (std::size_t r = 0; r < up; ++r) {
            for (std::size_t c = 0; c < up; ++c) {
              ata[r * up + c] += w * basis[r] * basis[c];
            }
            const double wb = w * basis[r];
            double* ar = &atb[r * B];
            for (std::size_t b = 0; b < B; ++b) ar[b] += wb * yj[b];
          }
        }
        for (std::size_t r = 0; r < up; ++r) ata[r * up + r] += 1e-12;

        std::size_t perm[detail::kMaxSmallSolve];
        bool singular = false;
        try {
          detail::lu_small(up, ata, perm);
        } catch (const SingularMatrixError&) {
          singular = true;
        }
        double* fi = &fitted_t[i * B];
        if (singular) {
          const double* yi = &yt[i * B];
          for (std::size_t b = 0; b < B; ++b) fi[b] = yi[b];
        } else {
          // Forward substitution on permuted rhs (L has unit diagonal),
          // then back substitution — detail::solve_small's loops, lane-wide.
          for (std::size_t r = 0; r < up; ++r) {
            double* yr = &yv[r * B];
            const double* src = &atb[perm[r] * B];
            for (std::size_t b = 0; b < B; ++b) yr[b] = src[b];
            for (std::size_t j2 = 0; j2 < r; ++j2) {
              const double l = ata[r * up + j2];
              const double* yj2 = &yv[j2 * B];
              for (std::size_t b = 0; b < B; ++b) yr[b] -= l * yj2[b];
            }
          }
          for (std::size_t ii = up; ii-- > 0;) {
            double* xi = &xv[ii * B];
            const double* yi2 = &yv[ii * B];
            for (std::size_t b = 0; b < B; ++b) xi[b] = yi2[b];
            for (std::size_t j2 = ii + 1; j2 < up; ++j2) {
              const double u = ata[ii * up + j2];
              const double* xj2 = &xv[j2 * B];
              for (std::size_t b = 0; b < B; ++b) xi[b] -= u * xj2[b];
            }
            const double uii = ata[ii * up + ii];
            for (std::size_t b = 0; b < B; ++b) xi[b] /= uii;
          }
          for (std::size_t b = 0; b < B; ++b) fi[b] = xv[b];  // beta[0]
        }
      } else {
        // Robust pass: robustness differs per lane, so each lane gets its
        // own normal system; the base tricube weights stay shared.
        for (std::size_t j = lo; j < hi; ++j) {
          const double d = std::abs(x[j] - x[i]) / max_dist;
          w_base[j - lo] = tricube(d);
        }
        double* fi = &fitted_t[i * B];
        for (std::size_t b = 0; b < B; ++b) {
          double ata[9] = {};
          double atb_b[3] = {};
          for (std::size_t j = lo; j < hi; ++j) {
            double w = w_base[j - lo];
            w *= rob_t[j * B + b];
            if (w <= 0.0) continue;
            const double dx = x[j] - x[i];
            const double basis[3] = {1.0, dx, dx * dx};
            for (std::size_t r = 0; r < up; ++r) {
              for (std::size_t c = 0; c < up; ++c) {
                ata[r * up + c] += w * basis[r] * basis[c];
              }
              atb_b[r] += w * basis[r] * yt[j * B + b];
            }
          }
          for (std::size_t r = 0; r < up; ++r) ata[r * up + r] += 1e-12;
          try {
            double beta[3];
            detail::solve_small(up, ata, atb_b, beta);
            fi[b] = beta[0];
          } catch (const SingularMatrixError&) {
            fi[b] = yt[i * B + b];
          }
        }
      }
    }
    if (iter == cfg.robust_iterations) break;
    // Bisquare robustness weights from each lane's residual median.
    if (rob_t.empty()) rob_t.resize(n * B);
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t i = 0; i < n; ++i) {
        abs_res[i] = std::abs(ys[b * n + i] - fitted_t[i * B + b]);
      }
      const double s = median(abs_res);
      if (s > 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          rob_t[i * B + b] = bisquare(abs_res[i] / (6.0 * s));
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) rob_t[i * B + b] = 1.0;
      }
    }
  }

  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t i = 0; i < n; ++i) out[b * n + i] = fitted_t[i * B + b];
  }
  return out;
#endif  // RGE_SIMD_ENABLED
}

}  // namespace rge::math
