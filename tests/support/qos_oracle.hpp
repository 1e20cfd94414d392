// The scalar per-episode oracle of simulate_qos, for tests and benches.
//
// simulate_qos runs every episode through a per-shard reusable arena
// (PooledEpisodeRunner, fed by the SoA batch engine on the analytic path)
// and reads geometric passes from one run-wide frozen visibility cache.
// simulate_qos_oracle computes the same experiment the plain way: the
// same kQosEpisodeShards shard ranges, run serially, every episode built
// from scratch by EpisodeEngine::run from the same episode_rng.fork(e)
// streams, geometric passes read from a shard-private VisibilityCache.
// It folds results with simulate_qos's own accumulator and epilogue
// (oaq/montecarlo_internal.hpp), so the two can differ only in how an
// episode executes — which is what the byte-identity suites compare:
// results, trace JSONL, metrics JSON and ledger JSON.
//
// Differences by design: `jobs` and `profile` are ignored (the oracle is
// serial), `batch_metrics` has no batch engine to report, and geometric
// runs export no `visibility.*` keys (hit accounting depends on the
// cache; metrics_json(..., /*drop_visibility=*/true) strips them from a
// simulate_qos registry for comparison).
#pragma once

#include <cstdint>
#include <string>

#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"

namespace oaq {

/// Episode `e` of `config`, built from scratch by EpisodeEngine::run —
/// the oracle's unit of work. `schedule` is the geometric schedule in
/// geometric mode and ignored (null) in analytic mode; `hooks` is
/// nullable.
[[nodiscard]] EpisodeResult oracle_episode(const QosSimulationConfig& config,
                                           const CoverageSchedule* schedule,
                                           std::int64_t e,
                                           ShardTraceBuffer* trace,
                                           const EpisodeFaultHooks* hooks);

/// The whole experiment through oracle_episode (see the file header).
[[nodiscard]] SimulatedQos simulate_qos_oracle(
    const QosSimulationConfig& config);

/// `metrics` as JSON, optionally without its `visibility.*` counters.
[[nodiscard]] std::string metrics_json(const MetricsRegistry& metrics,
                                       bool drop_visibility = false);

}  // namespace oaq
