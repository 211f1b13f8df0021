// Entire implementation is compiled out with RGE_OBSERVABILITY=OFF; the
// inline stubs in obs/obs.hpp take over the API surface.
#ifndef RGE_OBS_ENABLED
#define RGE_OBS_ENABLED 1
#endif
#if RGE_OBS_ENABLED

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace rge::obs {

namespace {

std::atomic<bool> g_tracing{false};

struct Event {
  std::string name;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

struct BufferState {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::string thread_name;
  std::vector<Event> events;
};

struct Retired {
  std::uint32_t tid;
  std::string thread_name;
  std::vector<Event> events;
};

class Collector {
 public:
  static Collector& global() {
    // Leaked: thread-exit folding may outlive static destruction.
    static Collector* c = new Collector;
    return *c;
  }

  std::uint32_t attach(BufferState* b) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(b);
    return next_tid_++;
  }

  void detach(BufferState* b) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(live_, b);
    if (!b->events.empty() || !b->thread_name.empty()) {
      retired_.push_back(
          Retired{b->tid, std::move(b->thread_name), std::move(b->events)});
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.clear();
    for (BufferState* b : live_) {
      std::lock_guard<std::mutex> bl(b->mu);
      b->events.clear();
    }
  }

  std::map<std::string, SpanTotal> totals() {
    std::map<std::string, SpanTotal> out;
    const auto add = [&](const std::vector<Event>& events) {
      for (const Event& e : events) {
        SpanTotal& t = out[e.name];
        ++t.count;
        t.total_ns += e.t1_ns - e.t0_ns;
      }
    };
    std::lock_guard<std::mutex> lock(mu_);
    for (const Retired& r : retired_) add(r.events);
    for (BufferState* b : live_) {
      std::lock_guard<std::mutex> bl(b->mu);
      add(b->events);
    }
    return out;
  }

  std::string to_json() {
    struct Row {
      std::uint32_t tid;
      std::string thread_name;
      std::vector<Event> events;
    };
    std::vector<Row> rows;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rows.reserve(retired_.size() + live_.size());
      for (const Retired& r : retired_) {
        rows.push_back(Row{r.tid, r.thread_name, r.events});
      }
      for (BufferState* b : live_) {
        std::lock_guard<std::mutex> bl(b->mu);
        rows.push_back(Row{b->tid, b->thread_name, b->events});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.tid < b.tid; });

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string& piece) {
      if (!first) out += ',';
      first = false;
      out += piece;
    };
    char buf[256];
    for (const Row& row : rows) {
      if (!row.thread_name.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                      row.tid, row.thread_name.c_str());
        emit(buf);
      }
      for (const Event& e : row.events) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"ph\":\"X\",\"cat\":\"rge\",\"pid\":1,"
            "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
            e.name.c_str(), row.tid, static_cast<double>(e.t0_ns) / 1000.0,
            static_cast<double>(e.t1_ns - e.t0_ns) / 1000.0);
        emit(buf);
      }
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<BufferState*> live_;
  std::vector<Retired> retired_;
  std::uint32_t next_tid_ = 1;
};

struct ThreadBufferOwner {
  BufferState state;
  ThreadBufferOwner() { state.tid = Collector::global().attach(&state); }
  ~ThreadBufferOwner() { Collector::global().detach(&state); }
};

BufferState& local_buffer() {
  thread_local ThreadBufferOwner owner;
  return owner.state;
}

}  // namespace

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

std::int64_t trace_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t now_ns_if_tracing() {
  return tracing_enabled() ? trace_now_ns() : 0;
}

void set_thread_name(const char* name) {
  BufferState& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.thread_name = name;
}

void record_span(std::string name, std::int64_t t0_ns, std::int64_t t1_ns) {
  BufferState& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.push_back(Event{std::move(name), t0_ns, t1_ns});
}

std::string chrome_trace_json() { return Collector::global().to_json(); }

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json() << '\n';
  return static_cast<bool>(out);
}

void clear_trace() { Collector::global().clear(); }

std::map<std::string, SpanTotal> span_totals() {
  return Collector::global().totals();
}

void reset_all() {
  Registry::global().reset();
  clear_trace();
}

}  // namespace rge::obs

#endif  // RGE_OBS_ENABLED
