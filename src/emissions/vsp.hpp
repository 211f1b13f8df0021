// Vehicle Specific Power (VSP) fuel-consumption model (paper Section III-E,
// Eq. 7, Table II):
//   Gamma = f(GGE) * (A v^3 + B m v sin(theta) + C m v + m a v + D m a)
//
// Unit reconciliation (documented; the paper's Eq. 7 as printed is not
// dimensionally consistent): each parenthesised term is interpreted as fuel
// power in kW with v in m/s and m in tonnes — note m(t)*a*v is exactly kW —
// and GGE = 0.0545 converts kW to gallons/hour (i.e. 0.0545 gal per kWh of
// fuel power, ~18.3 kWh/gal, engine efficiency folded into the fitted
// coefficients: C = 0.3925 == mu*g/eta with eta ~= 0.30). The printed
// aerodynamic coefficient A = 4.7887 is scaled by 1e-3 to the same kW basis
// (0.5*rho*Cd*Af/eta ~= 1.4e-3 kW s^3/m^3 for the Table II vehicle).
// With this reading a 1.479 t sedan at 40 km/h on flat ground burns
// ~0.7 gal/h — a realistic figure — and grade terms dominate on hills.
//
// A non-negative idle floor models the engine's minimum burn (fuel flow
// cannot go negative downhill); this asymmetry is what makes gradient-aware
// totals higher on net (Section IV-C's +33.4%).
#pragma once

#include <cstdint>
#include <span>

namespace rge::emissions {

/// Table II parameters (printed values; see the unit note above).
struct VspParams {
  double gge = 0.0545;   ///< gallons per kWh of fuel power
  double a = 4.7887;     ///< aero coefficient (x 1e-3 kW s^3/m^3)
  double b = 21.2903;    ///< grade coefficient (kW per t*(m/s))
  double c = 0.3925;     ///< rolling coefficient (kW per t*(m/s))
  double d = 3.6000;     ///< acceleration transient coefficient
  double mass_t = 1.479; ///< gross vehicle weight (tonnes)
  /// Minimum burn rate (gallons/hour); typical passenger-car idle.
  double idle_floor_gal_per_h = 0.35;
  /// Scale applied to `a` to bring it onto the kW basis (see header note).
  double aero_scale = 1e-3;
};

/// Instantaneous fuel rate in gallons/hour.
/// @param speed_mps vehicle speed (m/s)
/// @param accel_mps2 vehicle acceleration (m/s^2)
/// @param grade_rad road gradient (radians)
double fuel_rate_gal_per_h(double speed_mps, double accel_mps2,
                           double grade_rad, const VspParams& p = {});

/// Fuel used over an interval dt seconds at the given operating point.
double fuel_used_gal(double speed_mps, double accel_mps2, double grade_rad,
                     double dt_s, const VspParams& p = {});

/// Fuel economy in gallons per km at steady speed on a constant grade.
double fuel_per_km_gal(double speed_mps, double grade_rad,
                       const VspParams& p = {});

/// Fuel (gallons) to traverse a gradient profile at constant cruise speed:
/// the sum of fuel_used_gal(speed, 0, g, step_m / speed) over the samples,
/// accumulated left to right. This is the per-edge energy cost the routing
/// layer precomputes; keeping the accumulation order fixed here is what
/// lets a frozen cost table stay bit-identical to an on-the-fly
/// evaluation per edge.
/// @throws std::invalid_argument on non-positive speed or step.
double profile_fuel_gal(std::span<const double> grades, double step_m,
                        double speed_mps, const VspParams& p = {});

/// Batch per-edge costing over profiles stored back-to-back in CSR layout:
/// profile i is grades[offsets[i] .. offsets[i+1]) sampled every step_m[i],
/// driven at speed_mps[i]. Writes profile_fuel_gal of each profile into
/// fuel_out[i] — one pass over the flat arrays, no per-edge allocation.
/// @throws std::invalid_argument on ragged array sizes or bad offsets.
void profile_fuel_batch(std::span<const double> grades,
                        std::span<const std::uint32_t> offsets,
                        std::span<const double> step_m,
                        std::span<const double> speed_mps,
                        std::span<double> fuel_out, const VspParams& p = {});

}  // namespace rge::emissions
