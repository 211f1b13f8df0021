#include "core/track_io.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sensors/trace.hpp"

namespace rge::core {

namespace {

constexpr std::string_view kMagic = "# rge-grade-track v1 source=";

}  // namespace

void write_track_csv(const GradeTrack& track, std::ostream& out) {
  out << kMagic << track.source << '\n';
  out << "t,s,grade,grade_var,speed\n";
  out << std::setprecision(17);
  for (std::size_t i = 0; i < track.size(); ++i) {
    out << track.t[i] << ',' << track.s[i] << ',' << track.grade[i] << ','
        << track.grade_var[i] << ',' << track.speed[i] << '\n';
  }
}

void write_track_csv_file(const GradeTrack& track, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("track CSV: cannot open for write: " + path);
  }
  write_track_csv(track, out);
}

GradeTrack read_track_csv(std::istream& in) {
  GradeTrack track;
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(in, line) || line.rfind(kMagic, 0) != 0) {
    throw std::runtime_error("track CSV: missing magic header");
  }
  track.source = line.substr(kMagic.size());
  ++line_no;
  if (!std::getline(in, line) || line != "t,s,grade,grade_var,speed") {
    throw std::runtime_error("track CSV: missing column header");
  }
  ++line_no;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = sensors::split_csv(line);
    if (fields.size() != 5) {
      throw std::runtime_error("track CSV: wrong field count at line " +
                               std::to_string(line_no));
    }
    const auto num = [&](std::size_t k) {
      return sensors::parse_csv_double(fields[k], line_no, "track");
    };
    track.t.push_back(num(0));
    track.s.push_back(num(1));
    track.grade.push_back(num(2));
    track.grade_var.push_back(num(3));
    track.speed.push_back(num(4));
  }
  return track;
}

GradeTrack read_track_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("track CSV: cannot open for read: " + path);
  }
  return read_track_csv(in);
}

}  // namespace rge::core
