#include "sensors/trace.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace rge::sensors {

double SensorTrace::duration_s() const {
  double end = 0.0;
  if (!imu.empty()) end = std::max(end, imu.back().t);
  if (!gps.empty()) end = std::max(end, gps.back().t);
  if (!speedometer.empty()) end = std::max(end, speedometer.back().t);
  if (!canbus_speed.empty()) end = std::max(end, canbus_speed.back().t);
  if (!barometer_alt.empty()) end = std::max(end, barometer_alt.back().t);
  if (!engine_torque.empty()) end = std::max(end, engine_torque.back().t);
  if (!active_gear.empty()) end = std::max(end, active_gear.back().t);
  return end;
}

namespace {

bool finite_imu(const ImuSample& s) {
  return std::isfinite(s.t) && std::isfinite(s.accel_forward) &&
         std::isfinite(s.accel_lateral) && std::isfinite(s.accel_vertical) &&
         std::isfinite(s.gyro_z);
}

bool finite_gps(const GpsFix& f) {
  return std::isfinite(f.t) && std::isfinite(f.position.latitude_deg) &&
         std::isfinite(f.position.longitude_deg) &&
         std::isfinite(f.position.altitude_m) && std::isfinite(f.speed_mps) &&
         std::isfinite(f.heading_rad);
}

bool finite_scalar(const ScalarSample& s) {
  return std::isfinite(s.t) && std::isfinite(s.value);
}

template <typename T, typename Pred>
std::size_t drop_unless(std::vector<T>& xs, Pred keep) {
  const std::size_t before = xs.size();
  std::erase_if(xs, [&](const T& x) { return !keep(x); });
  return before - xs.size();
}

template <typename T>
bool is_ordered(const std::vector<T>& xs) {
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i].t < xs[i - 1].t) return false;
  }
  return true;
}

/// Drop every sample whose timestamp regresses below the running maximum
/// of its stream. Keeps the first arrival at any time (duplicates stay),
/// so an in-order stream passes through untouched.
template <typename T>
std::size_t drop_regressive(std::vector<T>& xs) {
  const std::size_t before = xs.size();
  double t_max = -std::numeric_limits<double>::infinity();
  std::erase_if(xs, [&](const T& x) {
    if (x.t < t_max) return true;
    t_max = x.t;
    return false;
  });
  return before - xs.size();
}

}  // namespace

bool trace_is_finite(const SensorTrace& trace) {
  for (const auto& s : trace.imu) {
    if (!finite_imu(s)) return false;
  }
  for (const auto& f : trace.gps) {
    if (!finite_gps(f)) return false;
  }
  for (const auto* stream :
       {&trace.speedometer, &trace.canbus_speed, &trace.barometer_alt,
        &trace.engine_torque, &trace.active_gear}) {
    for (const auto& s : *stream) {
      if (!finite_scalar(s)) return false;
    }
  }
  return true;
}

bool trace_is_ordered(const SensorTrace& trace) {
  if (!is_ordered(trace.imu) || !is_ordered(trace.gps)) return false;
  for (const auto* stream :
       {&trace.speedometer, &trace.canbus_speed, &trace.barometer_alt,
        &trace.engine_torque, &trace.active_gear}) {
    if (!is_ordered(*stream)) return false;
  }
  return true;
}

bool trace_is_clean(const SensorTrace& trace) {
  return trace_is_finite(trace) && trace_is_ordered(trace);
}

SanitizeReport sanitize_trace(SensorTrace& trace) {
  SanitizeReport report;
  report.dropped_imu = drop_unless(trace.imu, finite_imu);
  report.dropped_gps = drop_unless(trace.gps, finite_gps);
  for (auto* stream :
       {&trace.speedometer, &trace.canbus_speed, &trace.barometer_alt,
        &trace.engine_torque, &trace.active_gear}) {
    report.dropped_scalar += drop_unless(*stream, finite_scalar);
  }
  // Order pass AFTER the finiteness pass: a NaN timestamp must not poison
  // the running maximum (NaN comparisons are false, so it would silently
  // pass through and then reject every later sample... after dropping it
  // here the order scan only ever sees finite times).
  report.dropped_unordered += drop_regressive(trace.imu);
  report.dropped_unordered += drop_regressive(trace.gps);
  for (auto* stream :
       {&trace.speedometer, &trace.canbus_speed, &trace.barometer_alt,
        &trace.engine_torque, &trace.active_gear}) {
    report.dropped_unordered += drop_regressive(*stream);
  }
  return report;
}

namespace {

void write_scalar_stream(std::ostream& out, std::string_view name,
                         const std::vector<ScalarSample>& xs) {
  for (const auto& s : xs) {
    out << name << ',' << s.t << ',' << s.value << '\n';
  }
}

[[noreturn]] void bad_field_count(std::string_view stream,
                                  std::size_t line_no) {
  throw std::runtime_error("trace CSV: wrong field count for stream '" +
                           std::string(stream) + "' at line " +
                           std::to_string(line_no));
}

}  // namespace

std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

double parse_csv_double(std::string_view field, std::size_t line_no,
                        std::string_view format) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    throw std::runtime_error(std::string(format) + " CSV: bad number '" +
                             std::string(field) + "' at line " +
                             std::to_string(line_no));
  }
  return value;
}

void write_csv(const SensorTrace& trace, std::ostream& out) {
  out << std::setprecision(17);
  out << "meta,imu_rate_hz," << trace.imu_rate_hz << '\n';
  for (const auto& s : trace.imu) {
    out << "imu," << s.t << ',' << s.accel_forward << ',' << s.accel_lateral
        << ',' << s.accel_vertical << ',' << s.gyro_z << '\n';
  }
  for (const auto& f : trace.gps) {
    out << "gps," << f.t << ',' << f.position.latitude_deg << ','
        << f.position.longitude_deg << ',' << f.position.altitude_m << ','
        << f.speed_mps << ',' << f.heading_rad << ',' << (f.valid ? 1 : 0)
        << '\n';
  }
  write_scalar_stream(out, "speedometer", trace.speedometer);
  write_scalar_stream(out, "canbus", trace.canbus_speed);
  write_scalar_stream(out, "barometer", trace.barometer_alt);
  write_scalar_stream(out, "engine_torque", trace.engine_torque);
  write_scalar_stream(out, "gear", trace.active_gear);
}

void write_csv_file(const SensorTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("trace CSV: cannot open for write: " + path);
  }
  write_csv(trace, out);
}

SensorTrace read_csv(std::istream& in) {
  SensorTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_csv(line);
    const auto num = [&](std::size_t k) {
      return parse_csv_double(fields[k], line_no, "trace");
    };
    const std::string_view stream = fields[0];
    if (stream == "meta") {
      if (fields.size() != 3 || fields[1] != "imu_rate_hz") {
        throw std::runtime_error("trace CSV: bad meta line " +
                                 std::to_string(line_no));
      }
      trace.imu_rate_hz = num(2);
    } else if (stream == "imu") {
      if (fields.size() != 6) bad_field_count(stream, line_no);
      ImuSample s;
      s.t = num(1);
      s.accel_forward = num(2);
      s.accel_lateral = num(3);
      s.accel_vertical = num(4);
      s.gyro_z = num(5);
      trace.imu.push_back(s);
    } else if (stream == "gps") {
      if (fields.size() != 8) bad_field_count(stream, line_no);
      GpsFix f;
      f.t = num(1);
      f.position.latitude_deg = num(2);
      f.position.longitude_deg = num(3);
      f.position.altitude_m = num(4);
      f.speed_mps = num(5);
      f.heading_rad = num(6);
      f.valid = num(7) != 0.0;
      trace.gps.push_back(f);
    } else if (stream == "speedometer" || stream == "canbus" ||
               stream == "barometer" || stream == "engine_torque" ||
               stream == "gear") {
      if (fields.size() != 3) bad_field_count(stream, line_no);
      ScalarSample s;
      s.t = num(1);
      s.value = num(2);
      if (stream == "speedometer") {
        trace.speedometer.push_back(s);
      } else if (stream == "canbus") {
        trace.canbus_speed.push_back(s);
      } else if (stream == "barometer") {
        trace.barometer_alt.push_back(s);
      } else if (stream == "engine_torque") {
        trace.engine_torque.push_back(s);
      } else {
        trace.active_gear.push_back(s);
      }
    } else {
      throw std::runtime_error("trace CSV: unknown stream '" +
                               std::string(stream) + "' at line " +
                               std::to_string(line_no));
    }
  }
  return trace;
}

SensorTrace read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("trace CSV: cannot open for read: " + path);
  }
  return read_csv(in);
}

}  // namespace rge::sensors
