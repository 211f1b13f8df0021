// Scoped tracing spans with Chrome-trace ("chrome://tracing" /
// https://ui.perfetto.dev) JSON export.
//
// Each OS thread appends completed spans to its own buffer (guarded by a
// per-buffer mutex that is uncontended in steady state — export is the
// only other party). Spans are scope-shaped, so events on one thread are
// properly nested by construction and the Chrome viewer stacks them
// without explicit depth info. Thread-pool workers register display
// names via set_thread_name(), which becomes "thread_name" metadata in
// the export.
//
// Export is intended at quiescence (after pool joins); live threads'
// buffers are still read safely (mutex), but in-flight spans are absent.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace rge::obs {

/// Runtime switch for span recording (independent of metrics' enabled()).
bool tracing_enabled();
void set_tracing(bool on);

/// Nanoseconds since process trace epoch — or 0 without a clock read
/// when tracing is off. Useful for call sites that stash a timestamp
/// (e.g. queue-entry enqueue time) without paying for the clock when
/// disabled.
std::int64_t now_ns_if_tracing();

/// Nanoseconds since process trace epoch (always reads the clock).
std::int64_t trace_now_ns();

/// Registers a display name for the calling thread in the trace export.
void set_thread_name(const char* name);

/// Records a completed span [t0_ns, t1_ns] on the calling thread.
/// Usually reached through Span / OBS_SPAN rather than directly.
void record_span(std::string name, std::int64_t t0_ns, std::int64_t t1_ns);

/// Chrome trace JSON ({"traceEvents":[...]}) of everything recorded.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Drops all recorded spans and thread names.
void clear_trace();

/// Per-name aggregate of the recorded spans.
struct SpanTotal {
  std::int64_t count = 0;     ///< spans recorded under the name
  std::int64_t total_ns = 0;  ///< sum of their durations
};

/// name -> {count, total ns} over every span recorded since the last
/// clear_trace(), on all threads (live and exited). Nested spans each
/// count in full, so a parent's total includes its children's time.
/// Spans that overlap on several threads each add their full duration, so
/// a total can exceed the wall time that covered it.
std::map<std::string, SpanTotal> span_totals();

/// RAII span. Records only if tracing was enabled at construction.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), t0_(tracing_enabled() ? trace_now_ns() : -1) {}
  explicit Span(std::string name)
      : owned_(std::move(name)),
        name_(owned_.c_str()),
        t0_(tracing_enabled() ? trace_now_ns() : -1) {}
  ~Span() {
    if (t0_ >= 0) record_span(name_, t0_, trace_now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string owned_;  // empty for literal-name spans
  const char* name_;
  std::int64_t t0_;
};

}  // namespace rge::obs
