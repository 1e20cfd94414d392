// Batched geometry engine harness (ISSUE 4 tentpole): scalar-vs-batched
// Kepler margin-sweep throughput, solve-only throughput, the warm-up wall
// of private per-shard visibility caches vs a whole simulate_qos run over
// the seeded shared cache, and
// the frozen cache's steady-state allocation count. Prints a human table
// plus one BENCH_JSON line (aggregated into BENCH_4.json by
// tools/run_bench.sh).
//
//   geometry_batch [samples] [reps]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "geom/geodesy.hpp"
#include "common/parallel.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/montecarlo_internal.hpp"
#include "orbit/batch_kepler.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "orbit/visibility_cache.hpp"

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
/// sample grid. Samples/sec on an eccentric J2 orbit — the most expensive
/// configuration the sweep meets.
ThroughputPair margin_sweep_throughput(int samples, int reps) {
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

  ThroughputPair out;
  double sink = 0.0;
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < samples; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const GeoPoint ssp =
          orbit.subsatellite_point(Duration::seconds(t[idx]), false);
      m[idx] = psi - central_angle(ssp, target);
    }
    sink += m.back();
  }
  out.scalar_per_sec =
      static_cast<double>(samples) * reps / seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    batch.coverage_margins(target, psi, false, t.data(), t.size(), m.data());
    sink += m.back();
  }
  out.batch_per_sec = static_cast<double>(samples) * reps / seconds_since(t0);
  if (sink == 0.0) std::abort();  // defeat over-eager optimizers
  return out;
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

/// Steady-state allocations per frozen-cache query: seed, freeze, warm the
/// output vector's capacity once, then count operator-new calls across
/// repeated sub-window queries (all frozen hits). The acceptance gate is
/// exactly zero.
std::uint64_t frozen_query_allocs(const Constellation& c, int queries) {
  SharedVisibilityCache::Options opt;
  opt.window_quantum = Duration::hours(4);
  SharedVisibilityCache cache(c, false, opt);
  const GeoPoint target{0.0, 0.0};
  cache.seed_window(target, Duration::zero(), opt.window_quantum);
  cache.freeze();

  VisibilityCacheStats stats;
  std::vector<Pass> out;
  std::size_t sink = 0;
  // Jittered sub-windows of the seeded quantum — the Monte-Carlo access
  // pattern; every one quantizes to the frozen entry.
  std::uint64_t salt = 1;
  const auto window = [&salt] {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const double from_min = static_cast<double>(salt % 120);
    return std::pair(Duration::minutes(from_min),
                     Duration::minutes(from_min + 90.0));
  };
  for (int q = 0; q < 16; ++q) {  // warm-up: grows `out` to peak capacity
    const auto [from, to] = window();
    cache.passes_window_into(target, from, to, out, &stats);
    sink += out.size();
  }
  const std::uint64_t before = benchutil::allocation_count();
  for (int q = 0; q < queries; ++q) {
    const auto [from, to] = window();
    cache.passes_window_into(target, from, to, out, &stats);
    sink += out.size();
  }
  if (sink == 0) std::abort();
  return benchutil::allocation_count() - before;
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = argc > 1 ? std::atoi(argv[1]) : 65536;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 20;

  std::cout << "=== Batched Kepler geometry engine (" << samples
            << " samples x " << reps << " reps) ===\n\n";

  const ThroughputPair margins = margin_sweep_throughput(samples, reps);
  const ThroughputPair solves = solve_throughput(samples, reps);

  const Constellation c = bench_constellation();
  std::vector<WarmupRow> warmup;
  for (const int jobs : {1, 4, 8}) warmup.push_back(warmup_wall(c, jobs));
  const std::uint64_t steady_allocs = frozen_query_allocs(c, 4096);

  TablePrinter kernels({"kernel", "scalar/s", "batched/s", "speedup"}, 2);
  kernels.add_row({std::string("margin sweep"), margins.scalar_per_sec,
                   margins.batch_per_sec, margins.speedup()});
  kernels.add_row({std::string("kepler solve"), solves.scalar_per_sec,
                   solves.batch_per_sec, solves.speedup()});
  kernels.print(std::cout);

  std::cout << "\n";
  TablePrinter walls({"jobs", "private caches (s)", "shared cache (s)",
                      "speedup"},
                     3);
  for (const auto& row : warmup) {
    walls.add_row({static_cast<long long>(row.jobs), row.legacy_s,
                   row.shared_s, row.speedup()});
  }
  walls.print(std::cout);
  std::cout << "\nfrozen-cache steady-state allocations over 4096 queries: "
            << steady_allocs << "\n";

  std::ostringstream json;
  json << "{\"bench\":\"geometry_batch\",\"samples\":" << samples
       << ",\"reps\":" << reps
       << ",\"margin_sweep\":{\"scalar_samples_per_sec\":"
       << margins.scalar_per_sec
       << ",\"batch_samples_per_sec\":" << margins.batch_per_sec
       << ",\"speedup\":" << margins.speedup()
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
  json << "],\"frozen_steady_state_allocs\":" << steady_allocs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Regression gates (ISSUE 4 acceptance): >= 2x batched margin-sweep
  // throughput, >= 2x lower warm-up wall at jobs 4 with the shared cache,
  // zero steady-state allocations on the frozen read path.
  bool ok = true;
  if (margins.speedup() < 2.0) {
    std::cout << "REGRESSION: margin-sweep speedup " << margins.speedup()
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
  if (steady_allocs != 0) {
    std::cout << "REGRESSION: frozen cache allocated " << steady_allocs
              << " times in steady state\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
