// Map-service demo: run the sharded city-scale serving layer end to end,
// the way a cloud deployment of the paper's gradient map would.
//
//   city network  ->  MapService (roads -> shards)  ->  fleet uploads
//                 ->  epoch-published snapshots  ->  served road views
//
// Shows: deterministic batch ingest on a thread pool, epoch/double-
// buffered serving (readers keep their snapshot while ingest continues),
// per-shard stats, exact rebalancing to a different shard count, and the
// per-shard matcher cache.
#include <cstdio>
#include <random>
#include <string>

#include "math/angles.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "service/map_service.hpp"

int main() {
  using namespace rge;

  // 1. A small city and the service over it: roads hashed onto 4 shards,
  //    serving on a 5 m gradient grid.
  const road::RoadNetwork city = road::make_city_network(7, 25.0);
  service::MapServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.fusion.distance_step_m = 5.0;
  service::MapService svc(city, cfg);
  std::printf("city: %zu roads, %.1f km on %zu shards\n", city.size(),
              city.total_length_m() / 1000.0, svc.n_shards());

  // 2. A fleet of partial-trip uploads (here synthesized from the true
  //    grades; in deployment these come out of the estimation pipeline
  //    via rekey_track_by_road).
  std::mt19937 rng(11);
  std::uniform_int_distribution<std::size_t> pick(0, city.size() - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<service::TrackUpload> fleet;
  for (std::uint32_t v = 0; v < 600; ++v) {
    const auto r = static_cast<service::RoadId>(pick(rng));
    const road::Road& road = city.roads()[r].road;
    const double len = road.length_m();
    const double s0 = u(rng) * 0.6 * len;
    const double s1 = s0 + (0.2 + 0.4 * u(rng)) * (len - s0);
    const auto n = static_cast<std::size_t>((s1 - s0) / 5.0) + 8;
    service::TrackUpload up;
    up.road = r;
    up.track.source = "veh-" + std::to_string(v);
    for (std::size_t i = 0; i < n; ++i) {
      const double s =
          s0 + (s1 - s0) * static_cast<double>(i) / static_cast<double>(n - 1);
      up.track.s.push_back(s);
      up.track.t.push_back(s / 12.0);
      up.track.grade.push_back(road.grade_at(s));
      up.track.grade_var.push_back(2e-5);
      up.track.speed.push_back(12.0);
    }
    fleet.push_back(std::move(up));
  }

  // 3. Ingest in batches on a pool and publish an epoch per batch.
  runtime::ThreadPool pool(4);
  for (std::size_t b = 0; b < 6; ++b) {
    const std::vector<service::TrackUpload> batch(
        fleet.begin() + static_cast<std::ptrdiff_t>(b * 100),
        fleet.begin() + static_cast<std::ptrdiff_t>((b + 1) * 100));
    svc.ingest(batch, &pool);
    const auto epoch = svc.publish(&pool);
    const auto snap = svc.snapshot();
    std::size_t covered = 0;
    for (const auto& view : snap->roads) covered += view.size();
    std::printf("epoch %llu: %zu covered cells\n",
                static_cast<unsigned long long>(epoch), covered);
  }

  // 4. Served views: per-road covered cells with coverage counts.
  const auto snap = svc.snapshot();
  const auto& view = snap->roads[0];
  std::printf("\nroad 0 ('%s'): %zu covered cells", svc.road(0).name().c_str(),
              view.size());
  if (!view.cells.empty()) {
    std::printf(", first at s=%.0f m (coverage %u, grade %.2f deg)",
                view.track.s.front(), view.coverage.front(),
                math::rad2deg(view.track.grade.front()));
  }
  std::printf("\n\nper-shard ingest stats:\n");
  for (const auto& st : svc.shard_stats()) {
    std::printf("  shard %zu: %zu roads, %llu uploads, %llu covered cells\n",
                st.shard, st.n_roads,
                static_cast<unsigned long long>(st.tracks_ingested),
                static_cast<unsigned long long>(st.covered_cells));
  }

  // 5. Rebalance to 8 shards: the published map is preserved bit-exactly.
  svc.rebalance(8);
  svc.publish(&pool);
  const auto after = svc.snapshot();
  bool same = true;
  for (std::size_t r = 0; same && r < after->roads.size(); ++r) {
    same = after->roads[r].cells == snap->roads[r].cells &&
           after->roads[r].track.grade == snap->roads[r].track.grade;
  }
  std::printf("\nrebalanced 4 -> 8 shards; served map unchanged: %s\n",
              same ? "yes" : "NO");

  // 6. Matching a point through the home shard's matcher cache.
  const auto matcher = svc.matcher(0);
  const auto fix = matcher->match_point(svc.road(0).geo_at(250.0));
  std::printf("matched s=250 m probe to s=%.1f m (lateral %.2f m)\n", fix.s_m,
              fix.lateral_m);
  return same ? 0 : 1;
}
