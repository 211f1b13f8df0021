#include "math/interp.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/interp_batch.hpp"

namespace rge::math {

LinearInterpolator::LinearInterpolator(std::vector<double> xs,
                                       std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  if (xs_.size() != ys_.size()) {
    throw std::invalid_argument("LinearInterpolator: size mismatch");
  }
  if (xs_.empty()) {
    throw std::invalid_argument("LinearInterpolator: needs >= 1 knot");
  }
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    if (xs_[i] <= xs_[i - 1]) {
      throw std::invalid_argument(
          "LinearInterpolator: x knots must be strictly increasing");
    }
  }
}

double LinearInterpolator::operator()(double x) const {
  return sample_linear(xs_, ys_, x);
}

std::vector<double> LinearInterpolator::sample(std::size_t n) const {
  // Sorted-grid batch kernel; bit-identical to evaluating operator() per
  // point (see interp_batch.hpp) but O(knots + n) instead of O(n log knots).
  const std::vector<double> grid = linspace(x_min(), x_max(), n);
  std::vector<double> out(grid.size(), 0.0);
  resample_sorted(xs_, ys_, grid, out);
  return out;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  std::vector<double> out;
  if (n == 0) return out;
  out.reserve(n);
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  }
  return out;
}

std::vector<double> cumulative_trapezoid(std::span<const double> x,
                                         std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("cumulative_trapezoid: size mismatch");
  }
  std::vector<double> out(x.size(), 0.0);
  for (std::size_t i = 1; i < x.size(); ++i) {
    out[i] = out[i - 1] + 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  }
  return out;
}

std::vector<double> finite_difference(std::span<const double> x,
                                      std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("finite_difference: size mismatch");
  }
  const std::size_t n = x.size();
  std::vector<double> out(n, 0.0);
  if (n < 2) return out;
  out[0] = (y[1] - y[0]) / (x[1] - x[0]);
  out[n - 1] = (y[n - 1] - y[n - 2]) / (x[n - 1] - x[n - 2]);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out[i] = (y[i + 1] - y[i - 1]) / (x[i + 1] - x[i - 1]);
  }
  return out;
}

std::vector<double> moving_average(std::span<const double> y,
                                   std::size_t half) {
  // O(n) via prefix sums: window sum [lo, hi] = prefix[hi+1] - prefix[lo].
  // (The naive per-window summation is O(n*half), which the online
  // estimator's detector tick cannot afford at 30 s x 10 Hz buffers.)
  const std::size_t n = y.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + y[i];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

}  // namespace rge::math
