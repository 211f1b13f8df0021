// Sensor trace containers and CSV (de)serialization.
//
// A SensorTrace is everything the estimation side is allowed to see: noisy
// smartphone IMU samples, 1 Hz GPS fixes, phone speedometer readings,
// CAN-bus speed (via bluetooth OBD dongle), and barometer altitude. Ground
// truth never crosses this boundary.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "math/geodesy.hpp"

namespace rge::sensors {

/// One inertial sample in the (aligned) smartphone frame: Y_B forward,
/// X_B right, Z_B up. Accelerometers report specific force.
struct ImuSample {
  double t = 0.0;
  double accel_forward = 0.0;  ///< m/s^2 along Y_B
  double accel_lateral = 0.0;  ///< m/s^2 along X_B
  double accel_vertical = 0.0; ///< m/s^2 along Z_B
  double gyro_z = 0.0;         ///< rad/s around Z_B (yaw rate)
};

/// One GPS fix (1 Hz). `valid` is false inside outage windows; consumers
/// must skip invalid fixes.
struct GpsFix {
  double t = 0.0;
  math::GeoPoint position;
  double speed_mps = 0.0;
  double heading_rad = 0.0;  ///< course over ground, CCW from East
  bool valid = true;
};

/// Generic timestamped scalar reading.
struct ScalarSample {
  double t = 0.0;
  double value = 0.0;
};

struct SensorTrace {
  double imu_rate_hz = 50.0;
  std::vector<ImuSample> imu;
  std::vector<GpsFix> gps;
  std::vector<ScalarSample> speedometer;    ///< phone speed estimate (m/s)
  std::vector<ScalarSample> canbus_speed;   ///< OBD speed (m/s)
  std::vector<ScalarSample> barometer_alt;  ///< altitude (m)
  /// Premium-car CAN streams ([5]-[8] need these; empty on ordinary cars).
  std::vector<ScalarSample> engine_torque;  ///< engine torque (Nm)
  std::vector<ScalarSample> active_gear;    ///< 1-based gear

  double duration_s() const;
  bool empty() const { return imu.empty(); }
};

/// Counts of samples removed by sanitize_trace, per stream family plus
/// the timestamp-order pass (which spans every stream).
struct SanitizeReport {
  std::size_t dropped_imu = 0;
  std::size_t dropped_gps = 0;
  std::size_t dropped_scalar = 0;     ///< across all scalar streams
  std::size_t dropped_unordered = 0;  ///< regressive timestamps, any stream

  std::size_t total() const {
    return dropped_imu + dropped_gps + dropped_scalar + dropped_unordered;
  }
};

/// True if every field of every sample in every stream is finite.
bool trace_is_finite(const SensorTrace& trace);

/// True if every stream's timestamps are non-decreasing (duplicates are
/// fine — a flushed-twice log block is recoverable; a regression is not).
bool trace_is_ordered(const SensorTrace& trace);

/// trace_is_finite && trace_is_ordered: the precondition downstream
/// filters actually rely on. The pipeline's sanitize_input gate.
bool trace_is_clean(const SensorTrace& trace);

/// Drop samples that would poison downstream filters: any sample whose
/// timestamp or payload is NaN/Inf (logging glitches, wire corruption,
/// saturated-to-Inf readings), then any sample whose timestamp regresses
/// below the running maximum of its stream (batched logging stacks can
/// flush blocks out of order; a negative dt would corrupt every EKF
/// integral downstream). Kept samples are untouched, so a clean trace
/// passes through bit-identically. The pipeline applies this
/// automatically (PipelineConfig::sanitize_input); it is exposed for
/// tools that ingest third-party traces directly.
SanitizeReport sanitize_trace(SensorTrace& trace);

/// Serialize a trace to a simple line-oriented CSV:
///   stream,t,fields...
/// e.g. "imu,0.020000,0.1,0.0,9.8,0.01". Deterministic formatting with
/// enough digits to round-trip doubles.
void write_csv(const SensorTrace& trace, std::ostream& out);
void write_csv_file(const SensorTrace& trace, const std::string& path);

/// Parse a trace written by write_csv. Unknown streams and malformed lines
/// raise std::runtime_error with the line number.
SensorTrace read_csv(std::istream& in);
SensorTrace read_csv_file(const std::string& path);

/// Field helpers shared by the line-oriented CSV formats (this trace
/// format and core's grade-track format).
/// Comma-split one line into views of it; no quoting, empty fields kept.
std::vector<std::string_view> split_csv(std::string_view line);
/// Parse a whole field as a double. @throws std::runtime_error
/// "<format> CSV: bad number '<field>' at line <line_no>".
double parse_csv_double(std::string_view field, std::size_t line_no,
                        std::string_view format);

}  // namespace rge::sensors
