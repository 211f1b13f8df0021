// 1-D interpolation and series resampling helpers.
//
// Profiles throughout the system (elevation vs distance, velocity vs time,
// gradient vs distance) are represented as strictly increasing knot series;
// LinearInterpolator provides clamped linear interpolation over them.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

namespace rge::math {

/// Piecewise-linear interpolation over sorted knots, clamped at the ends.
class LinearInterpolator {
 public:
  LinearInterpolator() = default;
  /// @throws std::invalid_argument if sizes differ, fewer than 1 knot, or
  /// xs is not strictly increasing.
  LinearInterpolator(std::vector<double> xs, std::vector<double> ys);

  double operator()(double x) const;

  std::size_t size() const { return xs_.size(); }
  double x_min() const { return xs_.front(); }
  double x_max() const { return xs_.back(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  /// Sample the interpolant at `n` evenly spaced points over [x_min, x_max].
  std::vector<double> sample(std::size_t n) const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// Bracketing position for clamped linear interpolation: y(q) =
/// ys[lo]*(1-f) + ys[hi]*f. Outside the key range lo == hi and f == 0.
struct InterpPos {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double f = 0.0;
};

/// Locate q in a sorted (non-decreasing) array of records by a key
/// projection (e.g. &ScalarSample::t) by binary search; clamped at the
/// ends. Items must be non-empty.
template <typename Items, typename Key>
InterpPos locate(const Items& items, Key key, double q) {
  const std::size_t n = std::size(items);
  const auto at = [&](std::size_t i) -> double {
    return std::invoke(key, items[i]);
  };
  if (q <= at(0)) return {0, 0, 0.0};
  if (q >= at(n - 1)) return {n - 1, n - 1, 0.0};
  std::size_t lo = 0;
  std::size_t hi = n - 1;
  // Invariant: key[lo] <= q < key[hi]; converge to hi == lo + 1 with
  // key[hi] > q (std::upper_bound semantics).
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid) <= q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double denom = at(hi) - at(lo);
  return {lo, hi, denom > 0.0 ? (q - at(lo)) / denom : 0.0};
}

/// Locate q in a sorted (non-decreasing) key array; see above. Keys must
/// be non-empty.
inline InterpPos locate(std::span<const double> keys, double q) {
  return locate(keys, std::identity{}, q);
}

/// Value at a located position, `value(i)` giving the i-th sample: the
/// endpoint value itself when clamped (lo == hi), else
/// value(lo)*(1-f) + value(hi)*f.
template <typename ValueAt>
double lerp_at(const InterpPos& pos, ValueAt value) {
  if (pos.lo == pos.hi) return value(pos.lo);
  return value(pos.lo) * (1.0 - pos.f) + value(pos.hi) * pos.f;
}

/// Clamped piecewise-linear sample of (keys, ys) at q; 0.0 when empty.
inline double sample_linear(std::span<const double> keys,
                            std::span<const double> ys, double q) {
  if (keys.empty()) return 0.0;
  return lerp_at(locate(keys, q), [&](std::size_t i) { return ys[i]; });
}

/// Clamped piecewise-linear sample over sorted records, keyed and valued
/// by projections (e.g. &ScalarSample::t, &ScalarSample::value); 0.0 when
/// empty.
template <typename Items, typename Key, typename Val>
double sample_linear(const Items& items, Key key, Val val, double q) {
  if (std::size(items) == 0) return 0.0;
  return lerp_at(locate(items, key, q), [&](std::size_t i) -> double {
    return std::invoke(val, items[i]);
  });
}

/// Monotone interpolation cursor: for query sequences that are
/// (mostly) non-decreasing — resampling grids, timelines — advance()
/// returns exactly what locate() returns but walks forward from the
/// previous bracket instead of binary-searching per query, making a full
/// sweep O(keys + queries) instead of O(queries log keys). A regressing
/// query falls back to one binary search, so results are bit-identical to
/// locate() for ANY query order.
class InterpCursor {
 public:
  InterpPos advance(std::span<const double> keys, double q) {
    if (q <= keys.front()) return {0, 0, 0.0};
    if (q >= keys.back()) return {keys.size() - 1, keys.size() - 1, 0.0};
    if (hi_ == 0 || hi_ >= keys.size() || keys[hi_ - 1] > q) {
      // Cold start or regressing query: reseek.
      const InterpPos pos = locate(keys, q);
      hi_ = pos.hi;
      return pos;
    }
    // keys[hi_ - 1] <= q < keys.back(): walk to the first key > q.
    while (keys[hi_] <= q) ++hi_;
    const std::size_t lo = hi_ - 1;
    const double denom = keys[hi_] - keys[lo];
    return {lo, hi_, denom > 0.0 ? (q - keys[lo]) / denom : 0.0};
  }

  void reset() { hi_ = 0; }

 private:
  std::size_t hi_ = 0;  ///< candidate upper bracket index (0 = unseeded)
};

/// Evenly spaced grid from lo to hi inclusive with n points (n >= 2), or the
/// single point lo when n == 1.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Cumulative trapezoidal integral of y over x; out[0] == 0.
std::vector<double> cumulative_trapezoid(std::span<const double> x,
                                         std::span<const double> y);

/// Centered finite-difference derivative dy/dx (one-sided at the ends).
std::vector<double> finite_difference(std::span<const double> x,
                                      std::span<const double> y);

/// Simple centered moving-average smoother with a window of 2*half+1
/// samples, truncated at the series ends.
std::vector<double> moving_average(std::span<const double> y,
                                   std::size_t half);

}  // namespace rge::math
