// SoA episode-batching harness: episodes/sec of the scalar oracle
// (simulate_qos_oracle, tests/support) vs the batched simulate_qos path,
// the batch engine's steady-state allocation count (hence
// alloc_counter), and the lane-occupancy histogram of the SoA prologue. Prints a human table plus a BENCH_JSON line
// (aggregated into BENCH_6.json by tools/run_bench.sh).
//
//   episode_batch [episodes]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "alloc_counter.hpp"
#include "common/distribution.hpp"
#include "common/table.hpp"
#include "oaq/batch_episode.hpp"
#include "oaq/montecarlo.hpp"
#include "qos_oracle.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The golden-trace simulation shape: single plane, k = 9, OAQ, bounded
/// computations — the protocol path the batch engine vectorizes.
QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = 1;  // single-thread A/B: per-core throughput, no pool noise
  return cfg;
}

/// Episodes/sec of one simulate_qos run, or of the scalar oracle's.
double episodes_per_sec(const QosSimulationConfig& cfg, bool batched) {
  const auto t0 = Clock::now();
  const SimulatedQos qos =
      batched ? simulate_qos(cfg) : simulate_qos_oracle(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(cfg.episodes) / elapsed;
}

struct SteadyState {
  std::uint64_t allocs = 0;
  std::uint64_t episodes = 0;
  BatchEpisodeStats stats;
};

/// Drive one BatchEpisodeEngine directly: a warm-up block grows every
/// reusable buffer (slab, envelope pool, pass/agent/participant storage,
/// the ready-queue heap), then the allocation delta over the following
/// episodes must be zero.
SteadyState steady_state_allocs(const QosSimulationConfig& cfg,
                                std::int64_t warm, std::int64_t total) {
  const ExponentialDuration duration_law(cfg.mu);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  const TimePoint signal_start = TimePoint::at(Duration::minutes(60));
  BatchEpisodeEngine engine(cfg.geometry, cfg.k, cfg.protocol,
                            cfg.opportunity_adaptive, duration_law,
                            episode_rng, signal_start, /*plan=*/nullptr);
  std::uint64_t level_sink = 0;
  const BatchEpisodeEngine::ResultSink sink =
      [&level_sink](std::int64_t, const EpisodeResult& r) {
        level_sink += static_cast<std::uint64_t>(to_int(r.level));
      };
  engine.run(0, warm, /*trace=*/nullptr, /*invariants=*/nullptr, sink);
  const std::uint64_t allocs_before = benchutil::allocation_count();
  engine.run(warm, total, /*trace=*/nullptr, /*invariants=*/nullptr, sink);
  if (level_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  SteadyState out;
  out.allocs = benchutil::allocation_count() - allocs_before;
  out.episodes = static_cast<std::uint64_t>(total - warm);
  out.stats = engine.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 12000;

  std::cout << "=== SoA episode batching (" << episodes << " episodes) ===\n\n";

  const QosSimulationConfig cfg = base_config(episodes);

  // Untimed warm-up (page faults, allocator growth, frequency ramp), then
  // interleaved repetitions so drift hits both variants.
  (void)episodes_per_sec(cfg, /*batched=*/false);
  double scalar_eps = 0.0, batched_eps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    scalar_eps = std::max(scalar_eps, episodes_per_sec(cfg, false));
    batched_eps = std::max(batched_eps, episodes_per_sec(cfg, true));
  }
  const double speedup = batched_eps / scalar_eps;

  const SteadyState steady = steady_state_allocs(cfg, 512, 4096);

  TablePrinter table({"path", "episodes/s", "speedup"}, 2);
  table.add_row({std::string("scalar oracle (per-episode ctor)"), scalar_eps,
                 1.0});
  table.add_row({std::string("batched (SoA + reuse)"), batched_eps, speedup});
  table.print(std::cout);

  const BatchEpisodeStats& bs = steady.stats;
  std::cout << "\nsteady state: " << steady.allocs << " allocs over "
            << steady.episodes << " episodes\n"
            << "lanes: " << bs.des_lanes << " DES / " << bs.escaped
            << " escaped of " << bs.episodes << "\n"
            << "occupancy (armed lanes per " << kEpisodeBatchWidth
            << "-wide block):";
  for (std::size_t i = 0; i < bs.occupancy.size(); ++i) {
    std::cout << " " << i << ":" << bs.occupancy[i];
  }
  std::cout << "\n";

  std::ostringstream json;
  json << "{\"bench\":\"episode_batch\",\"episodes\":" << episodes
       << ",\"throughput\":{\"scalar_episodes_per_sec\":" << scalar_eps
       << ",\"batched_episodes_per_sec\":" << batched_eps
       << ",\"speedup\":" << speedup
       << "},\"steady_state_allocs\":" << steady.allocs
       << ",\"occupancy\":{\"des_lanes\":" << bs.des_lanes
       << ",\"escaped\":" << bs.escaped << ",\"histogram\":[";
  for (std::size_t i = 0; i < bs.occupancy.size(); ++i) {
    json << (i == 0 ? "" : ",") << bs.occupancy[i];
  }
  json << "]}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates: the batched path sustains >= 2x the scalar
  // episodes/sec and allocates nothing in steady state.
  const bool ok = speedup >= 2.0 && steady.allocs == 0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
