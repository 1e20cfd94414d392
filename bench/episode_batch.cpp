// SoA episode-batching harness: episodes/sec of the scalar oracle
// (simulate_qos_oracle, tests/support) vs the batched simulate_qos path.
// Prints a human table plus a BENCH_JSON line, and exits 1 when the
// batched path falls below 2x the oracle. The batch engine's zero
// steady-state allocations are a tier-1 test
// (SteadyStateAllocs.BatchEngineEpisode in tests/alloc); its lane
// occupancy is in `oaqctl simulate --metrics` (sim.batch.*).
//
//   episode_batch [episodes]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
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

  TablePrinter table({"path", "episodes/s", "speedup"}, 2);
  table.add_row({std::string("scalar oracle (per-episode ctor)"), scalar_eps,
                 1.0});
  table.add_row({std::string("batched (SoA + reuse)"), batched_eps, speedup});
  table.print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"episode_batch\",\"episodes\":" << episodes
       << ",\"throughput\":{\"scalar_episodes_per_sec\":" << scalar_eps
       << ",\"batched_episodes_per_sec\":" << batched_eps
       << ",\"speedup\":" << speedup << "}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gate: the batched path sustains >= 2x the scalar
  // episodes/sec.
  const bool ok = speedup >= 2.0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
