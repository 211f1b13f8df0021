// Unit tests for interpolation / resampling helpers.
#include "math/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace rge::math {
namespace {

TEST(LinearInterpolator, ExactAtKnotsLinearBetween) {
  const LinearInterpolator f({0.0, 1.0, 3.0}, {0.0, 2.0, -2.0});
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 0.0);
}

TEST(LinearInterpolator, ClampsOutsideRange) {
  const LinearInterpolator f({1.0, 2.0}, {5.0, 7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 5.0);
  EXPECT_DOUBLE_EQ(f(99.0), 7.0);
  EXPECT_DOUBLE_EQ(f.x_min(), 1.0);
  EXPECT_DOUBLE_EQ(f.x_max(), 2.0);
}

TEST(LinearInterpolator, Validation) {
  EXPECT_THROW(LinearInterpolator({1.0, 1.0}, {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(LinearInterpolator({2.0, 1.0}, {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(LinearInterpolator({1.0}, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(LinearInterpolator({}, {}), std::invalid_argument);
  // A single knot is a constant function.
  const LinearInterpolator c({1.0}, {3.0});
  EXPECT_DOUBLE_EQ(c(-5.0), 3.0);
  EXPECT_DOUBLE_EQ(c(5.0), 3.0);
}

TEST(LinearInterpolator, Sample) {
  const LinearInterpolator f({0.0, 2.0}, {0.0, 4.0});
  const auto ys = f.sample(5);
  ASSERT_EQ(ys.size(), 5u);
  EXPECT_DOUBLE_EQ(ys[0], 0.0);
  EXPECT_DOUBLE_EQ(ys[2], 2.0);
  EXPECT_DOUBLE_EQ(ys[4], 4.0);
}

TEST(SampleLinear, EmptyClampedEndsAndDuplicateKeys) {
  EXPECT_EQ(sample_linear(std::vector<double>{}, std::vector<double>{}, 1.0),
            0.0);
  // Clamped ends return the endpoint value itself, not a lerp with the
  // neighbour: an infinite neighbour would turn 0*inf into NaN, and
  // -0.0 + 0.0 would lose the sign.
  const std::vector<double> ks = {0.0, 1.0, 1.0, 2.0};
  const std::vector<double> ys = {-0.0, 3.0, 5.0, 7.0};
  EXPECT_TRUE(std::signbit(sample_linear(ks, ys, -1.0)));
  EXPECT_EQ(sample_linear(ks, std::vector<double>{1.0, INFINITY, 0.0, 2.0},
                          -5.0),
            1.0);
  EXPECT_EQ(sample_linear(ks, ys, 9.0), 7.0);
  // Duplicate keys follow std::upper_bound: q on the repeated key takes
  // the last of its samples.
  EXPECT_EQ(sample_linear(ks, ys, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(sample_linear(ks, ys, 1.5), 6.0);
}

TEST(SampleLinear, KeyProjectionMatchesArrays) {
  struct Rec {
    double t;
    double v;
  };
  const std::vector<Rec> recs = {{0.0, 1.0}, {0.5, -2.0}, {2.0, 4.0}};
  const std::vector<double> ts = {0.0, 0.5, 2.0};
  const std::vector<double> vs = {1.0, -2.0, 4.0};
  for (const double q : {-1.0, 0.0, 0.2, 0.5, 1.3, 2.0, 3.0}) {
    EXPECT_EQ(sample_linear(recs, &Rec::t, &Rec::v, q),
              sample_linear(ts, vs, q));
    const InterpPos a = locate(recs, &Rec::t, q);
    const InterpPos b = locate(ts, q);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.f, b.f);
  }
  EXPECT_EQ(sample_linear(std::vector<Rec>{}, &Rec::t, &Rec::v, 0.0), 0.0);
}

TEST(Linspace, EdgeCases) {
  EXPECT_TRUE(linspace(0.0, 1.0, 0).empty());
  const auto one = linspace(3.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
  const auto xs = linspace(0.0, 1.0, 11);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_NEAR(xs[5], 0.5, 1e-15);
}

TEST(CumulativeTrapezoid, IntegratesLinear) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y{0.0, 1.0, 2.0, 3.0};  // integral = x^2/2
  const auto c = cumulative_trapezoid(x, y);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[3], 4.5);
  EXPECT_THROW(cumulative_trapezoid(x, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(FiniteDifference, RecoverLinearSlope) {
  const std::vector<double> x{0.0, 1.0, 2.0, 4.0};
  const std::vector<double> y{1.0, 3.0, 5.0, 9.0};
  const auto d = finite_difference(x, y);
  for (double v : d) EXPECT_NEAR(v, 2.0, 1e-12);
  EXPECT_TRUE(finite_difference(std::vector<double>{1.0},
                                std::vector<double>{1.0})[0] == 0.0);
}

TEST(MovingAverage, SmoothsAndPreservesConstant) {
  const std::vector<double> c{2.0, 2.0, 2.0, 2.0};
  const auto sc = moving_average(c, 1);
  for (double v : sc) EXPECT_DOUBLE_EQ(v, 2.0);

  const std::vector<double> spike{0.0, 0.0, 9.0, 0.0, 0.0};
  const auto ss = moving_average(spike, 1);
  EXPECT_DOUBLE_EQ(ss[2], 3.0);
  EXPECT_DOUBLE_EQ(ss[0], 0.0);
  EXPECT_DOUBLE_EQ(ss[1], 3.0);
}

namespace {

/// The pre-optimization O(n*half) implementation, kept as the oracle for
/// the prefix-sum version.
std::vector<double> moving_average_naive(std::span<const double> y,
                                         std::size_t half) {
  const std::size_t n = y.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    double acc = 0.0;
    for (std::size_t k = lo; k <= hi; ++k) acc += y[k];
    out[i] = acc / static_cast<double>(hi - lo + 1);
  }
  return out;
}

}  // namespace

TEST(MovingAverage, PrefixSumMatchesNaiveExactlyOnIntegerData) {
  // Integer-valued doubles sum exactly in both orders, so the prefix-sum
  // rewrite must agree bit-for-bit with the per-window oracle here.
  std::vector<double> y;
  std::uint64_t state = 88172645463325252ull;
  for (int i = 0; i < 500; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    y.push_back(static_cast<double>(static_cast<int>(state % 2001) - 1000));
  }
  for (const std::size_t half : {0u, 1u, 4u, 25u, 499u, 1000u}) {
    const auto fast = moving_average(y, half);
    const auto naive = moving_average_naive(y, half);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], naive[i]) << "half=" << half << " i=" << i;
    }
  }
}

TEST(MovingAverage, PrefixSumMatchesNaiveTightlyOnRealData) {
  // On arbitrary doubles the two summation orders can differ by rounding
  // only: the results must agree to near machine precision relative to
  // the window magnitude.
  std::vector<double> y;
  std::uint64_t state = 1442695040888963407ull;
  for (int i = 0; i < 800; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0,1)
    y.push_back((u - 0.5) * 2.0e3);
  }
  for (const std::size_t half : {1u, 7u, 63u, 400u}) {
    const auto fast = moving_average(y, half);
    const auto naive = moving_average_naive(y, half);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], naive[i], 1e-9) << "half=" << half << " i=" << i;
    }
  }
}

TEST(MovingAverage, EmptyAndSingleElement) {
  EXPECT_TRUE(moving_average(std::vector<double>{}, 3).empty());
  const auto one = moving_average(std::vector<double>{5.0}, 3);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 5.0);
}

}  // namespace
}  // namespace rge::math
