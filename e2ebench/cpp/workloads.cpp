#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "chain.hpp"
#include "core/map_matching.hpp"
#include "core/pipeline.hpp"
#include "math/angles.hpp"
#include "runtime/thread_pool.hpp"

namespace e2e {

using namespace rge;

namespace {

/// A timed phase that cannot reach its minimum epoch count stops here.
constexpr double kHardCapS = 120.0;
/// Every 8th epoch's graph is audited, at most 16 graphs per run.
constexpr std::uint64_t kAuditEvery = 8;
constexpr std::size_t kAuditVersions = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A field of /proc/self/status in kB (0 when unavailable).
double status_kb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream in(line.substr(key.size()));
      double kb = 0.0;
      in >> kb;
      return kb;
    }
  }
  return 0.0;
}

/// Reset the peak-RSS mark (VmHWM) to the current RSS.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Peak RSS of the timed phase above the RSS before set-up (inputs).
struct RssWindow {
  double base_kb = status_kb("VmRSS:");
  void start(RunResult& res) const { res.rss_from_reset = reset_peak_rss(); }
  void stop(RunResult& res) const {
    res.rss_mb = (status_kb("VmHWM:") - base_kb) / 1024.0;
  }
};

/// A fresh result whose windowed samples use the run's window length.
RunResult make_result(const char* item, const RunConfig& rc) {
  RunResult res;
  res.item = item;
  res.done.window_s = rc.window_s;
  res.busy_s.window_s = rc.window_s;
  res.staleness_ms.window_s = rc.window_s;
  res.read_ms.window_s = rc.window_s;
  return res;
}

bool keep_going(Clock::time_point t0, const RunConfig& rc,
                std::uint64_t epochs, RunResult& res) {
  const double elapsed = seconds_since(t0);
  if (elapsed >= kHardCapS) {
    res.gate_failures.push_back("timed phase hit the " +
                                std::to_string(kHardCapS) +
                                " s cap before its minimum epoch count");
    return false;
  }
  return elapsed < rc.seconds || epochs < rc.min_epochs;
}

std::uint64_t samples_of(const std::vector<service::TrackUpload>& ups) {
  std::uint64_t n = 0;
  for (const auto& u : ups) n += u.track.size();
  return n;
}

bool views_identical(const service::RoadView& a, const service::RoadView& b) {
  return a.cells == b.cells && a.coverage == b.coverage &&
         a.track.grade == b.track.grade &&
         a.track.grade_var == b.track.grade_var &&
         a.track.speed == b.track.speed && a.track.t == b.track.t &&
         a.track.s == b.track.s;
}

/// Mean |published grade - true grade| over covered cells, in degrees.
double map_mae_deg(const service::ServiceSnapshot& snap,
                   const road::RoadNetwork& net) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < snap.roads.size(); ++r) {
    const auto& tr = snap.roads[r].track;
    const road::Road& road = net.roads()[r].road;
    for (std::size_t i = 0; i < tr.size(); ++i) {
      sum += std::abs(tr.grade[i] - road.grade_at(tr.s[i]));
      ++n;
    }
  }
  return n == 0 ? std::numeric_limits<double>::infinity()
                : math::rad2deg(sum / static_cast<double>(n));
}

/// Gates shared by all workloads, on the service after its timed phase:
/// bit-identity with a single-shard serial service fed the same uploads
/// in the same order, sample conservation, map accuracy, and the ALT
/// routes re-checked against Dijkstra.
template <typename UploadsOf>
void service_gates(const service::MapService& svc,
                   const road::RoadNetwork& net,
                   const std::vector<std::size_t>& batch_log,
                   const UploadsOf& uploads_of,
                   const service::ServiceSnapshot& mae_snap,
                   double mae_bound_deg, const RouteAudit* audit,
                   RunResult& res) {
  const auto t0 = Clock::now();
  // The serial reference, split by road into kRefParts single-shard
  // services replayed side by side. Roads accumulate independently, so
  // each road's view in its part is exactly what one single-shard service
  // fed every upload in the same order would publish.
  constexpr std::size_t kRefParts = 4;
  std::size_t n_batches = 0;
  for (const std::size_t b : batch_log) n_batches = std::max(n_batches, b + 1);
  std::vector<std::vector<std::vector<service::TrackUpload>>> split(
      n_batches, std::vector<std::vector<service::TrackUpload>>(kRefParts));
  std::vector<std::uint64_t> batch_samples(n_batches, 0);
  for (std::size_t b = 0; b < n_batches; ++b) {
    for (const auto& up : uploads_of(b)) {
      split[b][up.road % kRefParts].push_back(up);
    }
    batch_samples[b] = samples_of(uploads_of(b));
  }
  std::uint64_t uploaded = 0;
  for (const std::size_t b : batch_log) uploaded += batch_samples[b];

  service::MapServiceConfig ref_cfg = service_config();
  ref_cfg.n_shards = 1;
  std::vector<std::unique_ptr<service::MapService>> refs(kRefParts);
  std::vector<std::thread> replay;
  for (std::size_t p = 0; p < kRefParts; ++p) {
    replay.emplace_back([&, p] {
      refs[p] = std::make_unique<service::MapService>(net, ref_cfg);
      for (const std::size_t b : batch_log) refs[p]->ingest(split[b][p]);
      refs[p]->publish();
    });
  }
  for (auto& t : replay) t.join();

  const auto a = svc.snapshot();
  bool identical = a->roads.size() == net.size();
  std::uint64_t ref_total = 0;
  for (std::size_t p = 0; p < kRefParts; ++p) {
    ref_total += refs[p]->total_samples_ingested();
    const auto b = refs[p]->snapshot();
    for (std::size_t r = p; identical && r < net.size(); r += kRefParts) {
      identical = views_identical(a->roads[r], b->roads[r]);
    }
  }
  if (!identical) {
    res.gate_failures.push_back(
        "sharded map differs from the single-shard serial map");
  }
  res.gate_notes.push_back("map bit-identical to 1-shard serial replay of " +
                           std::to_string(batch_log.size()) + " batches");

  // Sample conservation as the service defines it: the durable total
  // equals the per-shard attribution and the serial service's total (the
  // same tile routing). It can fall short of the raw upload sizes —
  // samples off the road's grid and samples between the last cell of one
  // tile and the first of the next are attributed to no tile — so that
  // shortfall is reported, not gated.
  std::uint64_t per_shard = 0;
  for (const auto& st : svc.shard_stats()) per_shard += st.samples_ingested;
  const std::uint64_t total = svc.total_samples_ingested();
  if (total != ref_total || total != per_shard || total > uploaded) {
    res.gate_failures.push_back(
        "total_samples_ingested " + std::to_string(total) + " vs serial " +
        std::to_string(ref_total) + ", per-shard sum " +
        std::to_string(per_shard) + ", uploaded " + std::to_string(uploaded));
  }
  res.samples_uploaded = uploaded;
  res.samples_unattributed = uploaded - std::min(uploaded, total);
  res.gate_notes.push_back(
      "total_samples_ingested == serial total == per-shard sum (" +
      std::to_string(total) + " of " + std::to_string(uploaded) +
      " uploaded samples attributed)");

  res.grade_mae_deg = map_mae_deg(mae_snap, net);
  if (!(res.grade_mae_deg < mae_bound_deg)) {
    res.gate_failures.push_back("grade MAE " +
                                std::to_string(res.grade_mae_deg) +
                                " deg >= bound " +
                                std::to_string(mae_bound_deg));
  }
  res.gate_notes.push_back("grade MAE < " + std::to_string(mae_bound_deg) +
                           " deg");

  if (audit != nullptr) {
    std::size_t checked = 0;
    const std::size_t bad = audit->recheck(checked);
    if (bad != 0 || checked == 0) {
      res.gate_failures.push_back(std::to_string(bad) + " of " +
                                  std::to_string(checked) +
                                  " audited routes differ from Dijkstra");
    }
    res.gate_notes.push_back(std::to_string(checked) +
                             " audited ALT routes == Dijkstra");
  }
  res.gates_s = seconds_since(t0);
}

/// The timed phase of a closed loop: epochs back to back from `t_start`
/// (set here) until the run is long enough.
template <typename Epoch>
void closed_loop(const RunConfig& rc, Clock::time_point& t_start,
                 RunResult& res, Epoch&& epoch) {
  t_start = Clock::now();
  while (keep_going(t_start, rc, res.epochs, res)) {
    const auto e0 = Clock::now();
    epoch();
    const auto e1 = Clock::now();
    res.epoch_ms.push_back(ms_between(e0, e1));
    res.busy_s.add(ms_between(t_start, e1) / 1000.0, ms_between(e0, e1) / 1000.0);
    ++res.epochs;
  }
  res.wall_s = seconds_since(t_start);
}

/// Per-instance service counters after the timed phase.
void shard_counts(const service::MapService& svc, RunResult& res) {
  res.shard_samples.clear();
  res.covered_cells = 0;
  for (const auto& st : svc.shard_stats()) {
    res.shard_samples.push_back(st.samples_ingested);
    res.covered_cells += st.covered_cells;
  }
}

void count_freeze(const GraphVersion& v, RunResult& res) {
  ++res.freezes;
  res.cost_tables_ms += v.csr.build_stats().cost_tables_ms;
  res.landmarks_ms += v.csr.build_stats().landmarks_ms;
}

/// Route-side tallies of one reader thread.
struct RouteTally {
  explicit RouteTally(double window_s) {
    lat_ms.window_s = window_s;
    done.window_s = window_s;
  }
  Windowed lat_ms;
  Windowed done;  ///< routes, by completion time
  std::uint64_t routes = 0;
  std::uint64_t failed = 0;
  double settled = 0.0;
  double pushed = 0.0;
  double path_over_settled = 0.0;

  /// `routes_are_items`: completed routes are the workload's items.
  void merge_into(RunResult& res, bool routes_are_items) const {
    res.read_ms.merge(lat_ms);
    if (routes_are_items) res.done.merge(done);
    res.routes += routes;
    res.attempted += routes + failed;
    res.failed += failed;
    res.settled_sum += settled;
    res.pushed_sum += pushed;
    res.path_over_settled_sum += path_over_settled;
  }
};

/// One priced route on `v`; returns its completion time. Recorded on
/// audited versions when `record` is set.
Clock::time_point price_route(const GraphVersion& v, const OdPair& od,
                              planning::Metric m,
                              planning::QueryContext& ctx, SpanLog& log,
                              RouteTally* tally, Clock::time_point t_start,
                              bool record) {
  planning::RouteGraph::Route r;
  Clock::time_point t0;
  Clock::time_point t1;
  bool ok = true;
  {
    const SpanLog::Scope span(log, layer::kRoute);
    t0 = Clock::now();
    try {
      r = v.csr.route(od.first, od.second, m, ctx, true);
    } catch (const std::exception&) {
      ok = false;
    }
    t1 = Clock::now();
  }
  ok = ok && r.found;
  if (tally != nullptr) {
    if (!ok) {
      ++tally->failed;
    } else {
      ++tally->routes;
      const double t_s = ms_between(t_start, t1) / 1000.0;
      tally->lat_ms.add(t_s, ms_between(t0, t1));
      tally->done.add(t_s, 1.0);
      const auto& st = ctx.stats();
      tally->settled += static_cast<double>(st.settled);
      tally->pushed += static_cast<double>(st.pushed);
      tally->path_over_settled +=
          static_cast<double>(r.nodes.size()) /
          static_cast<double>(std::max<std::size_t>(1, st.settled));
    }
  }
  if (ok && record) v.record(RouteRecord{od.first, od.second, m, std::move(r)});
  return t1;
}

}  // namespace

// ---------------------------------------------------------------- survey

RunResult run_survey(const SurveyScene& sc, const RunConfig& rc) {
  constexpr std::size_t kRoutesPerEpoch = 64;
  constexpr double kMaeBoundDeg = 1.0;

  RunResult res = make_result("trips", rc);
  res.logs.emplace_back(rc.trace);
  SpanLog& log = res.logs.front();
  SpanLog off;
  const RssWindow rss;
  runtime::ThreadPool pool(rc.threads);
  const core::PipelineConfig pcfg;
  const std::size_t nb = sc.batches.size();

  struct Chain {
    std::unique_ptr<service::MapService> svc;
    std::shared_ptr<const GraphVersion> graph;
    RouteAudit audit{kAuditEvery, kAuditVersions};
    std::vector<std::size_t> batch_log;
    std::vector<std::vector<service::TrackUpload>> uploads_of;
    std::shared_ptr<const service::ServiceSnapshot> mae_snap;
    std::uint64_t epochs = 0;
    std::size_t next_od = 0;
  };

  Clock::time_point t_start = Clock::now();  // reset when timing starts
  auto since_start = [&](Clock::time_point t) {
    return ms_between(t_start, t) / 1000.0;
  };

  auto epoch = [&](Chain& ch, bool timed) {
    SpanLog& L = timed ? log : off;
    const std::size_t b = ch.epochs % nb;
    const TripBatch& batch = sc.batches[b];
    const auto due = Clock::now();
    const SpanLog::Scope span(L, layer::kEpoch);

    std::vector<core::PipelineResult> results;
    {
      const SpanLog::Scope s(L, layer::kPipeline);
      try {
        results = core::run_pipeline_batch(batch.traces, sc.car, pcfg,
                                           rc.threads);
      } catch (const std::exception&) {
        results.clear();
      }
    }
    std::vector<service::TrackUpload> uploads;
    std::uint64_t rekey_failed = 0;
    {
      const SpanLog::Scope s(L, layer::kMatch);
      for (std::size_t i = 0; i < results.size(); ++i) {
        const service::RoadId road = batch.roads[i];
        try {
          uploads.push_back(service::TrackUpload{
              road, core::rekey_track_by_road(results[i].fused,
                                              sc.net.roads()[road].road,
                                              batch.traces[i].gps)});
        } catch (const std::exception&) {
          ++rekey_failed;
        }
      }
    }
    bool ingested = true;
    {
      const SpanLog::Scope s(L, layer::kIngest);
      try {
        ch.svc->ingest(uploads, &pool);
      } catch (const std::exception&) {
        ingested = false;
      }
    }
    {
      const SpanLog::Scope s(L, layer::kPublish);
      ch.svc->publish(&pool);
    }
    const std::uint64_t epoch_no = ch.svc->epoch();
    ch.graph = refresh_graph(*ch.svc, sc.net, due,
                             timed && ch.audit.wants(epoch_no), L);
    ch.audit.keep(ch.graph);

    planning::QueryContext ctx;
    RouteTally tally(rc.window_s);
    for (std::size_t q = 0; q < kRoutesPerEpoch; ++q) {
      const OdPair& od = sc.od[ch.next_od++ % sc.od.size()];
      const auto done = price_route(
          *ch.graph, od, static_cast<planning::Metric>(q % 4), ctx, L,
          timed ? &tally : nullptr, t_start, timed);
      if (timed && q == 0) {
        res.staleness_ms.add(since_start(done), ms_between(due, done));
      }
    }

    if (timed) {
      const std::uint64_t n = batch.traces.size();
      res.trips += n;
      res.rekeys += results.size();
      res.attempted += n + results.size() + uploads.size();
      if (results.empty()) {
        res.trips_failed += n;
        res.failed += n;
      }
      res.rekeys_failed += rekey_failed;
      res.failed += rekey_failed;
      if (ingested) {
        res.fixes_ingested += samples_of(uploads);
      } else {
        res.failed += uploads.size();
      }
      const std::uint64_t ok = results.empty() ? 0 : n;
      res.items += ok;
      res.done.add(since_start(Clock::now()), static_cast<double>(ok));
      count_freeze(*ch.graph, res);
      tally.merge_into(res, false);
    }
    if (ingested) {
      ch.batch_log.push_back(b);
      if (ch.uploads_of[b].empty()) ch.uploads_of[b] = std::move(uploads);
    }
    ++ch.epochs;
    if (ch.epochs == nb) ch.mae_snap = ch.svc->snapshot();
  };

  Chain ch;
  for (std::size_t rep = 0; rep < rc.setup_reps; ++rep) {
    ch = Chain{};
    const auto t0 = Clock::now();
    ch.svc = std::make_unique<service::MapService>(sc.net, service_config());
    ch.uploads_of.resize(nb);
    ch.svc->publish(&pool);
    ch.graph = refresh_graph(*ch.svc, sc.net, t0, false, off);
    epoch(ch, false);  // warm-up
    res.setup_s.push_back(seconds_since(t0));
  }

  rss.start(res);
  closed_loop(rc, t_start, res, [&] { epoch(ch, true); });
  rss.stop(res);
  shard_counts(*ch.svc, res);

  service_gates(
      *ch.svc, sc.net, ch.batch_log,
      [&](std::size_t b) -> const std::vector<service::TrackUpload>& {
        return ch.uploads_of[b];
      },
      ch.mae_snap ? *ch.mae_snap : *ch.svc->snapshot(), kMaeBoundDeg,
      &ch.audit, res);
  return res;
}

// --------------------------------------------------------------- uploads

RunResult run_uploads(const FleetScene& sc, const RunConfig& rc) {
  constexpr std::size_t kReadsPerEpoch = 64;
  constexpr double kMaeBoundDeg = 0.5;

  RunResult res = make_result("fixes", rc);
  res.logs.emplace_back(rc.trace);
  SpanLog& log = res.logs.front();
  SpanLog off;
  const RssWindow rss;
  runtime::ThreadPool pool(rc.threads);
  const std::size_t nb = sc.batches.size();
  const std::size_t n_roads = sc.net.size();
  double checksum = 0.0;

  struct Chain {
    std::unique_ptr<service::MapService> svc;
    std::vector<std::size_t> batch_log;
    std::shared_ptr<const service::ServiceSnapshot> mae_snap;
    std::uint64_t epochs = 0;
  };

  // A map reader: the latest snapshot, then the grade at mid-road.
  auto read_grade = [&](const service::ServiceSnapshot& snap,
                        std::size_t k) {
    const service::RoadView& v = snap.roads[k % n_roads];
    if (v.size() == 0) return 0.0;
    const double mid = 0.5 * sc.net.roads()[k % n_roads].road.length_m();
    const auto it =
        std::lower_bound(v.track.s.begin(), v.track.s.end(), mid);
    const auto i = std::min<std::size_t>(
        v.size() - 1, static_cast<std::size_t>(it - v.track.s.begin()));
    return v.track.grade[i];
  };

  Clock::time_point t_start = Clock::now();  // reset when timing starts
  auto since_start = [&](Clock::time_point t) {
    return ms_between(t_start, t) / 1000.0;
  };

  auto epoch = [&](Chain& ch, bool timed) {
    SpanLog& L = timed ? log : off;
    const std::size_t b = ch.epochs % nb;
    const auto& batch = sc.batches[b];
    const auto due = Clock::now();
    const SpanLog::Scope span(L, layer::kEpoch);
    bool ingested = true;
    {
      const SpanLog::Scope s(L, layer::kIngest);
      try {
        ch.svc->ingest(batch, &pool);
      } catch (const std::exception&) {
        ingested = false;
      }
    }
    std::uint64_t published = 0;
    {
      const SpanLog::Scope s(L, layer::kPublish);
      published = ch.svc->publish(&pool);
    }
    for (std::size_t j = 0; j < kReadsPerEpoch; ++j) {
      Clock::time_point t0;
      Clock::time_point t1;
      std::shared_ptr<const service::ServiceSnapshot> snap;
      {
        const SpanLog::Scope s(L, layer::kSnapshot);
        t0 = Clock::now();
        snap = ch.svc->snapshot();
        checksum += read_grade(*snap, ch.epochs * kReadsPerEpoch + j);
        t1 = Clock::now();
      }
      if (!timed) continue;
      res.read_ms.add(since_start(t1), ms_between(t0, t1));
      if (j == 0) {
        if (snap->epoch != published) {
          res.gate_failures.push_back("published epoch not visible");
        }
        res.staleness_ms.add(since_start(t1), ms_between(due, t1));
      }
    }
    if (timed) {
      res.attempted += batch.size();
      if (ingested) {
        res.fixes_ingested += samples_of(batch);
        res.items += samples_of(batch);
        res.done.add(since_start(Clock::now()),
                     static_cast<double>(samples_of(batch)));
      } else {
        res.failed += batch.size();
      }
    }
    if (ingested) ch.batch_log.push_back(b);
    ++ch.epochs;
    if (ch.epochs == nb) ch.mae_snap = ch.svc->snapshot();
  };

  Chain ch;
  for (std::size_t rep = 0; rep < rc.setup_reps; ++rep) {
    ch = Chain{};
    const auto t0 = Clock::now();
    ch.svc = std::make_unique<service::MapService>(sc.net, service_config());
    ch.svc->publish(&pool);
    epoch(ch, false);  // warm-up
    res.setup_s.push_back(seconds_since(t0));
  }

  rss.start(res);
  closed_loop(rc, t_start, res, [&] { epoch(ch, true); });
  rss.stop(res);
  shard_counts(*ch.svc, res);
  if (!std::isfinite(checksum)) res.gate_failures.push_back("reads not finite");

  service_gates(
      *ch.svc, sc.net, ch.batch_log,
      [&](std::size_t b) -> const std::vector<service::TrackUpload>& {
        return sc.batches[b];
      },
      ch.mae_snap ? *ch.mae_snap : *ch.svc->snapshot(), kMaeBoundDeg,
      nullptr, res);
  return res;
}

// ---------------------------------------------------------------- routes

RunResult run_routes(const FleetScene& sc, const RunConfig& rc) {
  constexpr double kPeriodMs = 80.0;  // writer schedule
  constexpr double kMaeBoundDeg = 0.5;
  constexpr std::size_t kRecordEvery = 8;
  constexpr std::size_t kMaxEpochs = 1 << 16;

  RunResult res = make_result("routes", rc);
  for (std::size_t i = 0; i <= rc.threads; ++i) res.logs.emplace_back(rc.trace);
  SpanLog& log = res.logs.front();
  SpanLog off;
  const RssWindow rss;
  const std::size_t nb = sc.batches.size();

  struct Chain {
    std::unique_ptr<service::MapService> svc;
    std::shared_ptr<const GraphVersion> graph;
    RouteAudit audit{kAuditEvery, kAuditVersions};
    std::vector<std::size_t> batch_log;
    std::shared_ptr<const service::ServiceSnapshot> mae_snap;
    std::uint64_t epochs = 0;
  };
  std::mutex graph_mu;  // guards ch.graph while clients run

  // Writer epoch: ingest, publish, refresh, swap. Serial: the clients
  // own the other cores.
  auto epoch = [&](Chain& ch, Clock::time_point due, bool timed) {
    SpanLog& L = timed ? log : off;
    const std::size_t b = ch.epochs % nb;
    const auto& batch = sc.batches[b];
    const SpanLog::Scope span(L, layer::kEpoch);
    bool ingested = true;
    {
      const SpanLog::Scope s(L, layer::kIngest);
      try {
        ch.svc->ingest(batch);
      } catch (const std::exception&) {
        ingested = false;
      }
    }
    {
      const SpanLog::Scope s(L, layer::kPublish);
      ch.svc->publish();
    }
    auto v = refresh_graph(*ch.svc, sc.net, due,
                           timed && ch.audit.wants(ch.svc->epoch()), L);
    ch.audit.keep(v);
    if (timed) {
      res.attempted += batch.size();
      if (ingested) {
        res.fixes_ingested += samples_of(batch);
      } else {
        res.failed += batch.size();
      }
      count_freeze(*v, res);
    }
    {
      const std::lock_guard<std::mutex> lock(graph_mu);
      ch.graph = std::move(v);
    }
    if (ingested) ch.batch_log.push_back(b);
    ++ch.epochs;
    if (ch.epochs == nb) ch.mae_snap = ch.svc->snapshot();
  };

  Chain ch;
  for (std::size_t rep = 0; rep < rc.setup_reps; ++rep) {
    ch = Chain{};
    const auto t0 = Clock::now();
    ch.svc = std::make_unique<service::MapService>(sc.net, service_config());
    ch.svc->publish();
    ch.graph = refresh_graph(*ch.svc, sc.net, t0, false, off);
    epoch(ch, Clock::now(), false);  // warm-up
    res.setup_s.push_back(seconds_since(t0));
  }

  // Staleness per epoch: due -> first route priced on that epoch's graph,
  // written once by whichever client wins the CAS on `priced`.
  // Each slot: (staleness ms, completion time s); NaN when never priced.
  std::vector<std::pair<double, double>> stale(
      kMaxEpochs, {std::numeric_limits<double>::quiet_NaN(), 0.0});
  std::atomic<std::uint64_t> priced{ch.graph->epoch};
  std::atomic<bool> stop{false};
  std::vector<RouteTally> tallies(rc.threads, RouteTally(rc.window_s));
  Clock::time_point t_start;  // set before the clients start

  auto client = [&](std::size_t c) {
    SpanLog& L = res.logs[c + 1];
    RouteTally& tally = tallies[c];
    planning::QueryContext ctx;
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      std::shared_ptr<const GraphVersion> v;
      {
        const std::lock_guard<std::mutex> lock(graph_mu);
        v = ch.graph;
      }
      const std::size_t k = c + i * rc.threads;
      const auto done = price_route(
          *v, sc.od[k % sc.od.size()], static_cast<planning::Metric>(k % 4),
          ctx, L, &tally, t_start, i % kRecordEvery == 0);
      std::uint64_t seen = priced.load();
      while (v->epoch > seen) {
        if (priced.compare_exchange_weak(seen, v->epoch)) {
          if (v->epoch < kMaxEpochs) {
            stale[v->epoch] = {ms_between(v->due, done),
                               ms_between(t_start, done) / 1000.0};
          }
          break;
        }
      }
    }
  };

  rss.start(res);
  t_start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(rc.threads);
  for (std::size_t c = 0; c < rc.threads; ++c) clients.emplace_back(client, c);
  std::uint64_t last_epoch = 0;
  try {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kPeriodMs));
    Clock::time_point due = t_start;
    while (keep_going(t_start, rc, res.epochs, res)) {
      // A writer that overran its slot starts at the next free slot: a
      // slow host then skips batches instead of queueing them without
      // bound, and staleness stays the cost of one epoch.
      while (due < Clock::now()) due += period;
      std::this_thread::sleep_until(due);
      const auto e0 = Clock::now();
      epoch(ch, due, true);
      res.epoch_ms.push_back(ms_between(e0, Clock::now()));
      ++res.epochs;
      last_epoch = ch.graph->epoch;
      due += period;
    }
    // Let the readers price the last graph before stopping them.
    const auto wait0 = Clock::now();
    while (priced.load() < last_epoch && seconds_since(wait0) < 1.0) {
      std::this_thread::yield();
    }
  } catch (...) {
    stop = true;
    for (auto& t : clients) t.join();
    throw;
  }
  stop = true;
  for (auto& t : clients) t.join();
  res.wall_s = seconds_since(t_start);
  rss.stop(res);
  shard_counts(*ch.svc, res);

  for (const RouteTally& t : tallies) t.merge_into(res, true);
  res.items = res.routes;
  for (const auto& [ms, t_s] : stale) {
    if (!std::isnan(ms)) res.staleness_ms.add(t_s, ms);
  }

  service_gates(
      *ch.svc, sc.net, ch.batch_log,
      [&](std::size_t b) -> const std::vector<service::TrackUpload>& {
        return sc.batches[b];
      },
      ch.mae_snap ? *ch.mae_snap : *ch.svc->snapshot(), kMaeBoundDeg,
      &ch.audit, res);
  return res;
}

}  // namespace e2e
