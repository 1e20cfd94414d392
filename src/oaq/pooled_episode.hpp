// The per-shard episode arena of simulate_qos (DESIGN.md §12, §14).
//
// EpisodeEngine::run builds a Simulator, a CrosslinkNetwork and a
// TargetEpisode from scratch for every episode. At mega-constellation
// scale (72×22) the per-episode slab growth and handler registration
// dominate — the network's dense per-plane tables alone cover 1584
// satellites — and on the analytic path most episodes are over before
// they start. PooledEpisodeRunner keeps one reusable DES context per
// shard, constructed on the shard's own thread (first touch keeps the
// arena NUMA-local) and reset per episode. It serves every simulate_qos
// mode: geometric runs drive it directly over the shared visibility
// cache; analytic runs drive it from BatchEpisodeEngine, which owns the
// AnalyticSchedule the runner reads and reassigns it per armed lane.
//
// There is no escape pre-test here — arm() consults the real pass
// geometry — so a failed arm retires with EpisodeEngine::run's default
// result exactly like its early return.
//
// Determinism: the runner consumes the same per-episode streams as the
// test-side scalar oracle (protocol = ep.fork(3), network =
// .fork(0x6e6574), injector = .fork(0x666c74)); handler registration is
// a superset of the per-episode registration (every listed satellite
// instead of the episode's horizon), and no protocol message ever
// targets a satellite outside its episode's horizon, so the extra
// registrations are unreachable. Results, traces, metrics and ledger
// rows are byte-identical to the oracle at any job count — the golden
// byte tests and the oracle suites pin it.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "net/crosslink.hpp"
#include "oaq/episode.hpp"
#include "oaq/schedule.hpp"
#include "oaq/target_episode.hpp"
#include "sim/simulator.hpp"

namespace oaq {

class FaultPlan;         // src/fault/plan.hpp
class InvariantChecker;  // src/fault/invariants.hpp
class EpisodeLedger;     // src/obs/ledger.hpp

/// Per-shard pooled episode runner. Construct one per shard — the DES
/// context is single-threaded state — and drive it once per episode in
/// episode order.
class PooledEpisodeRunner {
 public:
  /// `schedule` is the shard's coverage schedule (its pass horizon must
  /// cover every episode window; the runner reads it on every arm, so a
  /// caller may reassign it between episodes); `satellites` lists every
  /// satellite an episode may touch (the constellation's active set, or
  /// the k slots of the analytic plane) and is read only here; `plan` is
  /// nullable and an empty plan is treated as none. All referenced
  /// objects must outlive the runner.
  PooledEpisodeRunner(const CoverageSchedule& schedule,
                      const std::vector<SatelliteId>& satellites,
                      const ProtocolConfig& cfg, bool opportunity_adaptive,
                      const FaultPlan* plan);

  PooledEpisodeRunner(const PooledEpisodeRunner&) = delete;
  PooledEpisodeRunner& operator=(const PooledEpisodeRunner&) = delete;

  /// Run episode `e`: `protocol_rng` is ep.fork(3), `start` the signal
  /// start (jittered in geometric mode), `duration` the sampled signal
  /// duration. `trace`, `invariants` and `ledger` are nullable; the
  /// ledger receives every final drop, retry and fault activation under
  /// id `e`. The returned reference is valid until the next run_episode
  /// call.
  const EpisodeResult& run_episode(std::int64_t e, const Rng& protocol_rng,
                                   TimePoint start, Duration duration,
                                   ShardTraceBuffer* trace,
                                   InvariantChecker* invariants,
                                   EpisodeLedger* ledger = nullptr);

 private:
  ProtocolConfig cfg_;
  bool oaq_;
  const FaultPlan* plan_;  ///< normalized: null when absent or empty

  // Reusable DES context — constructed once, reset per episode.
  Simulator sim_;
  /// The protocol stream of the episode currently running; TargetEpisode
  /// holds a pointer to it across reset_for calls.
  Rng protocol_rng_;
  CrosslinkNetwork net_;
  std::set<SatelliteId> no_known_failed_;
  TargetEpisode episode_;
  std::optional<FaultInjector> injector_;
  /// Reusable stochastic-clause expander — repeated arms allocate nothing.
  FaultProcessExpander expander_;

  /// Reused copy target (participants capacity survives, so steady-state
  /// episodes retire without allocating).
  EpisodeResult result_buf_;
};

}  // namespace oaq
