// Spans recorded by the benchmark around each call into a layer of the
// program. One SpanLog per thread (never shared), kept in memory and
// summarised after the run. A disabled log records nothing and reads no
// clock, so the untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Layer names, one per repository module boundary the chain crosses.
namespace layer {
inline constexpr const char* kEpoch = "epoch";
inline constexpr const char* kPipeline = "core.pipeline";
inline constexpr const char* kMatch = "core.match";
inline constexpr const char* kIngest = "service.ingest";
inline constexpr const char* kPublish = "service.publish";
inline constexpr const char* kSnapshot = "service.snapshot";
inline constexpr const char* kGraph = "planning.graph";
inline constexpr const char* kFreeze = "planning.freeze";
inline constexpr const char* kRoute = "planning.route";
}  // namespace layer

struct Span {
  const char* name = nullptr;
  int parent = -1;  ///< index into the same log, -1 for a root span
  Clock::time_point t0;
  Clock::time_point t1;
  double ms() const { return ms_between(t0, t1); }
};

class SpanLog {
 public:
  explicit SpanLog(bool on = false) : on_(on) {}

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opens on construction, closes on destruction. Nested
  /// scopes on the same log become children of the innermost open one.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log.on_ ? &log : nullptr) {
      if (log_ == nullptr) return;
      index_ = static_cast<int>(log_->spans_.size());
      log_->spans_.push_back(Span{name, log_->open_, Clock::now(), {}});
      log_->open_ = index_;
    }
    ~Scope() {
      if (log_ == nullptr) return;
      Span& s = log_->spans_[static_cast<std::size_t>(index_)];
      s.t1 = Clock::now();
      log_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace e2e
