// Unit tests for the observability layer: metrics registry (counters /
// gauges / histograms across threads), JSON snapshot, tracing spans, the
// Chrome-trace export, and the per-name span totals reader.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

#if RGE_OBS_ENABLED

namespace {

using rge::obs::Registry;

/// RAII: reset metrics/trace state and force a known enabled state, then
/// restore the defaults (everything off) so tests do not leak state.
struct ObsSandbox {
  ObsSandbox(bool metrics, bool tracing) {
    rge::obs::reset_all();
    rge::obs::set_enabled(metrics);
    rge::obs::set_tracing(tracing);
  }
  ~ObsSandbox() {
    rge::obs::set_enabled(false);
    rge::obs::set_tracing(false);
    rge::obs::reset_all();
  }
};

TEST(ObsMetrics, CounterAccumulatesAndResets) {
  ObsSandbox sandbox(true, false);
  for (int i = 0; i < 5; ++i) OBS_COUNT("test.counter_basic", 2);
  auto snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("test.counter_basic"), 10);

  // reset zeroes the value but keeps the registration (the static handle
  // inside the macro stays valid).
  rge::obs::reset_all();
  OBS_COUNT("test.counter_basic", 3);
  snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("test.counter_basic"), 3);
}

TEST(ObsMetrics, GaugeGoesUpAndDown) {
  ObsSandbox sandbox(true, false);
  OBS_GAUGE_ADD("test.gauge", 7);
  OBS_GAUGE_ADD("test.gauge", -3);
  const auto snap = Registry::global().snapshot();
  EXPECT_EQ(snap.gauges.at("test.gauge"), 4);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow) {
  ObsSandbox sandbox(true, false);
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  rge::obs::Histogram h("test.histo", {bounds.data(), bounds.size()});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(5.0);    // bucket 1
  h.observe(99.0);   // bucket 2
  h.observe(1e6);    // overflow bucket 3
  const auto snap = Registry::global().snapshot();
  const auto& hs = snap.histograms.at("test.histo");
  ASSERT_EQ(hs.counts.size(), 4u);
  EXPECT_EQ(hs.counts[0], 2);
  EXPECT_EQ(hs.counts[1], 1);
  EXPECT_EQ(hs.counts[2], 1);
  EXPECT_EQ(hs.counts[3], 1);
  EXPECT_EQ(hs.count, 5);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 5.0 + 99.0 + 1e6);
}

TEST(ObsMetrics, ThreadShardsMergeOnScrape) {
  ObsSandbox sandbox(true, false);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) OBS_COUNT("test.mt_counter", 1);
    });
  }
  // Scrape while threads are live: the total must never exceed the final
  // value and the final scrape (after join → shard retirement) is exact.
  const auto mid = Registry::global().snapshot();
  if (mid.counters.count("test.mt_counter") != 0) {
    EXPECT_LE(mid.counters.at("test.mt_counter"),
              static_cast<std::int64_t>(kThreads) * kPerThread);
  }
  for (auto& th : threads) th.join();
  const auto snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("test.mt_counter"),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, DisabledRecordsNothing) {
  ObsSandbox sandbox(false, false);
  OBS_COUNT("test.disabled_counter", 1);
  OBS_GAUGE_ADD("test.disabled_gauge", 1);
  OBS_OBSERVE("test.disabled_histo", 1.0, rge::obs::latency_bounds_us());
  const auto snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled_counter"), 0u);
  EXPECT_EQ(snap.gauges.count("test.disabled_gauge"), 0u);
  EXPECT_EQ(snap.histograms.count("test.disabled_histo"), 0u);
}

TEST(ObsMetrics, JsonSnapshotIsWellFormedAndSorted) {
  ObsSandbox sandbox(true, false);
  OBS_COUNT("test.json_b", 2);
  OBS_COUNT("test.json_a", 1);
  OBS_OBSERVE("test.json_h", 3.0, rge::obs::latency_bounds_us());
  const std::string json = rge::obs::metrics_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_a\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_b\":2"), std::string::npos);
  // Map iteration order => "test.json_a" serializes before "test.json_b".
  EXPECT_LT(json.find("\"test.json_a\""), json.find("\"test.json_b\""));
  EXPECT_NE(json.find("\"test.json_h\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(ObsMetrics, KindMismatchThrows) {
  ObsSandbox sandbox(true, false);
  Registry::global().register_counter("test.kind_clash");
  EXPECT_THROW(Registry::global().register_gauge("test.kind_clash"),
               std::logic_error);
}

TEST(ObsTrace, SpansNestAndExportChromeJson) {
  ObsSandbox sandbox(true, true);
  rge::obs::set_thread_name("test-main");
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
  }
  const std::string json = rge::obs::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Thread-name metadata event for the named thread.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);

  // Nesting: the inner complete-event must start no earlier and end no
  // later than the outer one. Pull ts/dur out of the serialized events.
  const auto event_window = [&](const std::string& name) {
    const std::size_t at = json.find("\"name\":\"" + name + "\"");
    EXPECT_NE(at, std::string::npos);
    const std::size_t ts_at = json.find("\"ts\":", at);
    const std::size_t dur_at = json.find("\"dur\":", at);
    const double ts = std::stod(json.substr(ts_at + 5));
    const double dur = std::stod(json.substr(dur_at + 6));
    return std::pair<double, double>(ts, ts + dur);
  };
  const auto [outer_t0, outer_t1] = event_window("outer");
  const auto [inner_t0, inner_t1] = event_window("inner");
  EXPECT_GE(inner_t0, outer_t0);
  EXPECT_LE(inner_t1, outer_t1);
}

TEST(ObsTrace, SpansFromPoolWorkersCarryTheirOwnTid) {
  ObsSandbox sandbox(true, true);
  std::thread worker([] {
    rge::obs::set_thread_name("test-worker");
    OBS_SPAN("worker_span");
  });
  worker.join();
  {
    OBS_SPAN_DYN(std::string("main_span"));
  }
  const std::string json = rge::obs::chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main_span\""), std::string::npos);
  EXPECT_NE(json.find("test-worker"), std::string::npos);
}

TEST(ObsTrace, DisabledTracingRecordsNoSpans) {
  ObsSandbox sandbox(true, false);
  {
    OBS_SPAN("should_not_appear");
  }
  const std::string json = rge::obs::chrome_trace_json();
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
}

TEST(ObsTrace, WriteChromeTraceCreatesFile) {
  ObsSandbox sandbox(true, true);
  {
    OBS_SPAN("file_span");
  }
  const std::string path = ::testing::TempDir() + "rge_obs_trace_test.json";
  ASSERT_TRUE(rge::obs::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("file_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSpanTotals, SumsNestedAndRepeatedNames) {
  ObsSandbox sandbox(false, true);
  for (int i = 0; i < 2; ++i) {
    OBS_SPAN("totals.outer");
    for (int k = 0; k < 3; ++k) {
      OBS_SPAN("totals.inner");
    }
    OBS_SPAN_DYN(std::string("totals.inner"));  // same name, built at runtime
  }
  const auto totals = rge::obs::span_totals();
  ASSERT_EQ(totals.count("totals.outer"), 1u);
  ASSERT_EQ(totals.count("totals.inner"), 1u);
  EXPECT_EQ(totals.at("totals.outer").count, 2);
  EXPECT_EQ(totals.at("totals.inner").count, 8);
  // Each span counts in full, so the parents cover their children.
  EXPECT_GE(totals.at("totals.outer").total_ns,
            totals.at("totals.inner").total_ns);
}

TEST(ObsSpanTotals, CollectsSpansFromSeveralPoolThreads) {
  ObsSandbox sandbox(false, true);
  constexpr std::size_t kBodies = 64;
  {
    rge::runtime::ThreadPool pool(4);
    rge::runtime::parallel_for(pool, kBodies, [](std::size_t i) {
      OBS_SPAN("totals.body");
      // Scrape while other threads are still recording.
      if (i % 16 == 0) (void)rge::obs::span_totals();
    });
    // Live workers' buffers are read before the pool joins...
    EXPECT_EQ(rge::obs::span_totals().at("totals.body").count,
              static_cast<std::int64_t>(kBodies));
  }
  // ...and the retired buffers of exited threads after it.
  std::thread exiting([] { OBS_SPAN("totals.exited"); });
  exiting.join();
  const auto totals = rge::obs::span_totals();
  EXPECT_EQ(totals.at("totals.body").count,
            static_cast<std::int64_t>(kBodies));
  EXPECT_EQ(totals.at("totals.exited").count, 1);
}

TEST(ObsSpanTotals, ResetByClearTraceAndSilentWhenTracingOff) {
  ObsSandbox sandbox(false, true);
  {
    OBS_SPAN("totals.cleared");
  }
  EXPECT_EQ(rge::obs::span_totals().at("totals.cleared").count, 1);
  rge::obs::clear_trace();
  EXPECT_TRUE(rge::obs::span_totals().empty());

  rge::obs::set_tracing(false);
  {
    OBS_SPAN("totals.untraced");
  }
  EXPECT_TRUE(rge::obs::span_totals().empty());

  rge::obs::set_tracing(true);
  {
    OBS_SPAN("totals.cleared");
  }
  EXPECT_EQ(rge::obs::span_totals().at("totals.cleared").count, 1);
}

}  // namespace

#else  // !RGE_OBS_ENABLED

TEST(ObsCompiledOut, StubsAreInertConstants) {
  static_assert(!rge::obs::kCompiledIn);
  OBS_COUNT("gone", 1);
  OBS_SPAN("gone");
  EXPECT_FALSE(rge::obs::enabled());
  EXPECT_EQ(rge::obs::metrics_json(), "{}");
  EXPECT_TRUE(rge::obs::span_totals().empty());
}

#endif
