// Observability layer: metrics (counters / gauges / histograms) and
// tracing spans with Chrome-trace export.
//
// Design contract, in priority order:
//   1. Zero overhead when compiled out: building with RGE_OBS_ENABLED=0
//      (cmake -DRGE_OBSERVABILITY=OFF) turns every macro below into
//      `(void)0` and every inline helper into a constant — no code, no
//      data, no clock reads survive in the instrumented binaries.
//   2. Near-zero overhead when compiled in but runtime-disabled (the
//      default): each site costs one relaxed atomic load and a branch.
//      This is the mode production-shaped binaries run in, and the
//      `perf`-labelled test pins its cost.
//   3. Lock-free hot path when enabled: counter/gauge/histogram updates
//      go to thread-local shards (relaxed atomics on per-thread cache
//      lines) that the scrape merges; no mutex is ever taken on the
//      update path after a site's first touch.
//
// The split between metrics.hpp (registry + shards) and trace.hpp
// (spans + Chrome export) keeps the two halves independently usable;
// this umbrella header is what instrumented code includes.
#pragma once

#ifndef RGE_OBS_ENABLED
#define RGE_OBS_ENABLED 1
#endif

#if RGE_OBS_ENABLED
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#else
#include <cstdint>
#include <map>
#include <string>
#endif

namespace rge::obs {

#if RGE_OBS_ENABLED

inline constexpr bool kCompiledIn = true;

#else  // ---- compiled-out stubs: same API surface, all constant ---------

inline constexpr bool kCompiledIn = false;

inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
inline constexpr bool tracing_enabled() { return false; }
inline void set_tracing(bool) {}
inline constexpr std::int64_t now_ns_if_tracing() { return 0; }
inline constexpr std::int64_t trace_now_ns() { return 0; }
inline void set_thread_name(const char*) {}
inline std::string metrics_json() { return "{}"; }
inline bool write_metrics_json(const std::string&) { return false; }
inline std::string chrome_trace_json() { return "{\"traceEvents\":[]}"; }
inline bool write_chrome_trace(const std::string&) { return false; }
inline void clear_trace() {}
struct SpanTotal {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
};
inline std::map<std::string, SpanTotal> span_totals() { return {}; }
inline void reset_all() {}

#endif

}  // namespace rge::obs

// ---- instrumentation macros --------------------------------------------
//
// Call sites pay nothing beyond `if (enabled())` until observability is
// switched on; metric handles are function-local statics so the name
// lookup (the only mutex) happens once per site.

#define RGE_OBS_CONCAT2(a, b) a##b
#define RGE_OBS_CONCAT(a, b) RGE_OBS_CONCAT2(a, b)

#if RGE_OBS_ENABLED

/// Bump a named monotonic counter by `delta` (integer).
#define OBS_COUNT(name, delta)                                          \
  do {                                                                  \
    if (::rge::obs::enabled()) {                                        \
      static ::rge::obs::Counter RGE_OBS_CONCAT(rge_obs_c_, __LINE__){  \
          name};                                                        \
      RGE_OBS_CONCAT(rge_obs_c_, __LINE__).add(delta);                  \
    }                                                                   \
  } while (0)

/// Move a named up/down gauge by `delta` (may be negative).
#define OBS_GAUGE_ADD(name, delta)                                      \
  do {                                                                  \
    if (::rge::obs::enabled()) {                                        \
      static ::rge::obs::Gauge RGE_OBS_CONCAT(rge_obs_g_, __LINE__){    \
          name};                                                        \
      RGE_OBS_CONCAT(rge_obs_g_, __LINE__).add(delta);                  \
    }                                                                   \
  } while (0)

/// Record `value` into a named fixed-bucket histogram. `bounds` is any
/// expression convertible to std::span<const double> (evaluated once, at
/// the site's first enabled hit).
#define OBS_OBSERVE(name, value, bounds)                                \
  do {                                                                  \
    if (::rge::obs::enabled()) {                                        \
      static ::rge::obs::Histogram RGE_OBS_CONCAT(rge_obs_h_,           \
                                                  __LINE__){name,       \
                                                            bounds};    \
      RGE_OBS_CONCAT(rge_obs_h_, __LINE__).observe(value);              \
    }                                                                   \
  } while (0)

/// Scoped tracing span (string literal name; recorded when tracing on).
#define OBS_SPAN(name) \
  ::rge::obs::Span RGE_OBS_CONCAT(rge_obs_span_, __LINE__)(name)

/// Scoped tracing span with a runtime-built name (std::string copied).
#define OBS_SPAN_DYN(name_expr) \
  ::rge::obs::Span RGE_OBS_CONCAT(rge_obs_span_, __LINE__)(name_expr)

#else

#define OBS_COUNT(name, delta) ((void)0)
#define OBS_GAUGE_ADD(name, delta) ((void)0)
#define OBS_OBSERVE(name, value, bounds) ((void)0)
#define OBS_SPAN(name) ((void)0)
#define OBS_SPAN_DYN(name_expr) ((void)0)

#endif
