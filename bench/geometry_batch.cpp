// Batched geometry engine harness (ISSUE 4 tentpole): scalar-vs-batched
// Kepler margin-sweep throughput, solve-only throughput, and the warm-up
// wall of private per-shard visibility caches vs a whole simulate_qos run
// over the seeded shared cache. Prints a human table plus one BENCH_JSON
// line, and exits 1 when a gate fails. The frozen cache's zero
// steady-state allocations per query are a tier-1 test
// (SteadyStateAllocs.FrozenCacheQuery in tests/alloc).
//
//   geometry_batch [samples] [reps]
//
// `samples` sizes both kernels' grids; `reps` repeats the solve loop only
// (the margin-sweep A/B sizes its own runs, see margin_sweep_ab).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/table.hpp"
#include "geom/geodesy.hpp"
#include "common/parallel.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/montecarlo_internal.hpp"
#include "orbit/batch_kepler.hpp"
#include "orbit/visibility_cache.hpp"
#include "overhead_ab.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Constellation bench_constellation() {
  ConstellationDesign d;
  d.num_planes = 2;
  d.sats_per_plane = 8;
  d.inclination_rad = deg2rad(85.0);
  return Constellation(d);
}

struct ThroughputPair {
  double scalar_per_sec = 0.0;
  double batch_per_sec = 0.0;
  [[nodiscard]] double speedup() const { return batch_per_sec / scalar_per_sec; }
};

/// The PassPredictor hot loop, both ways: the pre-batch scalar chain
/// (subsatellite_point -> central_angle per sample, via the public
/// propagator API) against BatchKepler::coverage_margins over the same
/// sample grid, on an eccentric J2 orbit — the most expensive
/// configuration the sweep meets. One run sweeps the grid once; the runs
/// alternate in 11 pairs (bench/overhead_ab.hpp), so the median ratio
/// scalar wall / batched wall is the speedup.
bench::OverheadAb margin_sweep_ab(int samples) {
  KeplerianElements el;
  el.semi_major_km = 6921.0;
  el.eccentricity = 0.01;
  el.inclination_rad = deg2rad(85.0);
  el.raan_rad = 0.7;
  el.arg_perigee_rad = 0.3;
  const Orbit orbit = Orbit(el).with_j2();
  const BatchKepler batch(orbit);
  const GeoPoint target = GeoPoint::from_degrees(12.0, 34.0);
  const double psi = deg2rad(20.0);

  std::vector<double> t(static_cast<std::size_t>(samples));
  std::vector<double> m(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    t[static_cast<std::size_t>(i)] = 7.3 * static_cast<double>(i);
  }

  double sink = 0.0;
  const auto scalar = [&] {
    for (int i = 0; i < samples; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const GeoPoint ssp =
          orbit.subsatellite_point(Duration::seconds(t[idx]), false);
      m[idx] = psi - central_angle(ssp, target);
    }
    sink += m.back();
  };
  const auto batched = [&] {
    batch.coverage_margins(target, psi, false, t.data(), t.size(), m.data());
    sink += m.back();
  };
  const bench::OverheadAb ab = bench::measure_overhead(batched, scalar);
  if (sink == 0.0) std::abort();  // defeat over-eager optimizers
  return ab;
}

/// Kepler-equation solves/sec, scalar loop vs the masked-Newton batch.
/// Informational (no gate): the batch replicates the scalar iteration
/// bit-for-bit, so the win here is loop structure, not fewer iterations.
ThroughputPair solve_throughput(int samples, int reps) {
  const double e = 0.3;
  std::vector<double> mean(static_cast<std::size_t>(samples));
  std::vector<double> ecc(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    mean[static_cast<std::size_t>(i)] = 0.37 * static_cast<double>(i);
  }

  ThroughputPair out;
  double sink = 0.0;
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < mean.size(); ++i) {
      ecc[i] = solve_kepler(mean[i], e);
    }
    sink += ecc.back();
  }
  out.scalar_per_sec =
      static_cast<double>(samples) * reps / seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    BatchKepler::solve(mean.data(), mean.size(), e, ecc.data());
    sink += ecc.back();
  }
  out.batch_per_sec = static_cast<double>(samples) * reps / seconds_since(t0);
  if (sink == 0.0) std::abort();
  return out;
}

struct WarmupRow {
  int jobs = 0;
  double legacy_s = 0.0;
  double shared_s = 0.0;
  [[nodiscard]] double speedup() const { return legacy_s / shared_s; }
};

/// The warm-up of private per-shard caches: every one of the 64 shards
/// builds its own VisibilityCache and redoes the same quantum-window
/// Kepler sweep that an episode's first pass query triggers (the scalar
/// oracle still reads passes this way). Fanned out over `jobs` like the
/// shards themselves.
void private_cache_warmup(const QosSimulationConfig& cfg, int jobs) {
  VisibilityCache::Options vopt;
  vopt.window_quantum = detail::qos_visibility_quantum(cfg);
  const std::size_t passes = parallel_reduce<std::size_t>(
      kQosEpisodeShards, kQosEpisodeShards, jobs,
      [&](std::int64_t, std::int64_t, int) {
        VisibilityCache cache(*cfg.constellation, cfg.earth_rotation, vopt);
        std::vector<Pass> out;
        cache.passes_window_into(cfg.target, Duration::zero(),
                                 vopt.window_quantum, out);
        return out.size();
      },
      [](std::size_t& into, std::size_t&& from) { into += from; });
  if (passes == 0) std::abort();
}

/// Wall clock of cache warm-up: with private caches every one of the 64
/// shards redoes the same quantum-window Kepler sweep; a whole geometric
/// Monte-Carlo run over the shared cache seeds it once. The ratio is work
/// elimination (64 sweeps -> 1), so it holds on a single-core runner too.
WarmupRow warmup_wall(const Constellation& c, int jobs) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = 2 * kQosEpisodeShards;  // every shard participates
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = jobs;

  WarmupRow row;
  row.jobs = jobs;
  // Untimed warm-up so one-time costs (thread-pool spin-up at this jobs
  // level, page faults) don't land in whichever timed run goes first.
  private_cache_warmup(cfg, jobs);

  auto t0 = Clock::now();
  private_cache_warmup(cfg, jobs);
  row.legacy_s = seconds_since(t0);

  t0 = Clock::now();
  (void)simulate_qos(cfg);
  row.shared_s = seconds_since(t0);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = argc > 1 ? std::atoi(argv[1]) : 65536;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 20;

  std::cout << "=== Batched Kepler geometry engine (" << samples
            << " samples, " << reps << " solve reps) ===\n\n";

  const bench::OverheadAb margin_ab = margin_sweep_ab(samples);
  ThroughputPair margins;
  margins.scalar_per_sec = samples / margin_ab.variant_s;
  margins.batch_per_sec = samples / margin_ab.baseline_s;
  const ThroughputPair solves = solve_throughput(samples, reps);

  const Constellation c = bench_constellation();
  std::vector<WarmupRow> warmup;
  for (const int jobs : {1, 4, 8}) warmup.push_back(warmup_wall(c, jobs));

  TablePrinter kernels({"kernel", "scalar/s", "batched/s", "speedup"}, 2);
  kernels.add_row({std::string("margin sweep"), margins.scalar_per_sec,
                   margins.batch_per_sec, margin_ab.median});
  kernels.add_row({std::string("kepler solve"), solves.scalar_per_sec,
                   solves.batch_per_sec, solves.speedup()});
  kernels.print(std::cout);
  std::cout << "margin sweep speedup " << margin_ab.median << ": median of "
            << margin_ab.pairs << " interleaved pairs (" << margin_ab.reps
            << " sweeps per side), IQR " << margin_ab.q1 << "-"
            << margin_ab.q3 << "\n";

  std::cout << "\n";
  TablePrinter walls({"jobs", "private caches (s)", "shared cache (s)",
                      "speedup"},
                     3);
  for (const auto& row : warmup) {
    walls.add_row({static_cast<long long>(row.jobs), row.legacy_s,
                   row.shared_s, row.speedup()});
  }
  walls.print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"geometry_batch\",\"samples\":" << samples
       << ",\"reps\":" << reps
       << ",\"margin_sweep\":{\"scalar_samples_per_sec\":"
       << margins.scalar_per_sec
       << ",\"batch_samples_per_sec\":" << margins.batch_per_sec
       << ",\"speedup\":" << margin_ab.median
       << ",\"speedup_q1\":" << margin_ab.q1
       << ",\"speedup_q3\":" << margin_ab.q3
       << ",\"pairs\":" << margin_ab.pairs
       << ",\"sweeps_per_side\":" << margin_ab.reps
       << "},\"kepler_solve\":{\"scalar_solves_per_sec\":"
       << solves.scalar_per_sec
       << ",\"batch_solves_per_sec\":" << solves.batch_per_sec
       << ",\"speedup\":" << solves.speedup() << "},\"warmup\":[";
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    const auto& row = warmup[i];
    json << (i > 0 ? "," : "") << "{\"jobs\":" << row.jobs
         << ",\"private_s\":" << row.legacy_s
         << ",\"shared_s\":" << row.shared_s
         << ",\"speedup\":" << row.speedup() << "}";
  }
  json << "]}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Regression gates: >= 2x batched margin-sweep throughput (median pair
  // ratio), >= 2x lower warm-up wall at jobs 4 with the shared cache.
  bool ok = true;
  if (margin_ab.median < 2.0) {
    std::cout << "REGRESSION: margin-sweep speedup " << margin_ab.median
              << " < 2.0\n";
    ok = false;
  }
  const auto jobs4 =
      std::find_if(warmup.begin(), warmup.end(),
                   [](const WarmupRow& r) { return r.jobs == 4; });
  if (jobs4 == warmup.end() || jobs4->speedup() < 2.0) {
    std::cout << "REGRESSION: shared-cache warm-up speedup at jobs 4 "
              << (jobs4 == warmup.end() ? 0.0 : jobs4->speedup())
              << " < 2.0\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
