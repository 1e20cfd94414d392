// Internals of simulate_qos shared with the test-side scalar oracle
// (tests/support/qos_oracle.hpp): the per-episode input draws, the
// per-shard accumulator and fold, and the run epilogue. Sharing them —
// instead of copying — means the oracle can only differ from
// simulate_qos in how an episode is executed, which is exactly what the
// oracle suites compare. Not part of the public API.
#pragma once

#include <cstdint>
#include <memory>

#include "common/distribution.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/invariants.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace oaq::detail {

/// Shards of a run: kQosEpisodeShards, clamped to the episode count the
/// way parallel_reduce clamps it.
[[nodiscard]] int qos_shard_count(const QosSimulationConfig& config);

/// The fixed signal start of every episode, well inside the horizon; the
/// pass-pattern phase is randomized instead (equivalent by stationarity).
[[nodiscard]] inline TimePoint qos_signal_start() {
  return TimePoint::at(Duration::minutes(60));
}

/// `config.duration_distribution`, else Exp(µ).
[[nodiscard]] std::shared_ptr<const DurationDistribution> qos_duration_law(
    const QosSimulationConfig& config);

/// Period the episode phase is drawn over: the analytic revisit period
/// Tr(k), or in geometric mode the longest shell period (so every shell's
/// pass pattern is phase-randomized).
[[nodiscard]] Duration qos_phase_period(const QosSimulationConfig& config);

/// Geometric-mode visibility quantum, sized to cover every episode window
/// (start jitter ≤ one period, pass horizon ≤ signal cap + τ + post-roll),
/// so virtually every episode query quantizes to the same [0, quantum]
/// window — one Kepler sweep serves the whole run.
[[nodiscard]] Duration qos_visibility_quantum(
    const QosSimulationConfig& config);

/// Inputs of episode `e`, all derived from episode_rng.fork(e): the phase
/// from fork(1), the duration from fork(2), the protocol stream fork(3).
struct EpisodeDraw {
  Duration phase;
  Duration duration;
  Rng protocol;
};
[[nodiscard]] EpisodeDraw draw_episode(const Rng& episode_rng,
                                       std::int64_t e, Duration period,
                                       const DurationDistribution& law);

/// Private per-shard tallies; merging in shard order is exact because every
/// field is integral (DiscretePmf weights are integer-valued doubles) and
/// MetricsRegistry merges counters integrally / stats via the same
/// left-to-right Chan fold as RunningStat.
struct EpisodeAccum {
  DiscretePmf level_pmf;
  std::int64_t duplicates = 0;
  std::int64_t unresolved = 0;
  std::int64_t untimely = 0;
  std::int64_t detected = 0;
  std::int64_t chain_sum = 0;
  int max_chain_length = 0;
  MetricsRegistry metrics;  ///< shard-local; empty when metrics are off
  InvariantChecker invariants;  ///< shard-local; idle when checks are off
  EpisodeLedger ledger;  ///< shard-local; untouched when no sink is attached

  void merge(EpisodeAccum&& other);
};

/// Folds one episode result into a shard accumulator — counts, chain
/// statistics and (with `config.metrics`) the per-episode metrics, in the
/// order results arrive.
class EpisodeFold {
 public:
  explicit EpisodeFold(const QosSimulationConfig& config);
  void operator()(EpisodeAccum& acc, const EpisodeResult& r) const;

 private:
  bool want_metrics_;
  bool queue_metrics_;
  bool fault_metrics_;
  bool health_metrics_;
};

/// The run epilogue: exports the invariant count, hands the merged
/// metrics and ledger to the config's sinks, and builds the result.
[[nodiscard]] SimulatedQos finish_qos(const QosSimulationConfig& config,
                                      EpisodeAccum&& total);

}  // namespace oaq::detail
