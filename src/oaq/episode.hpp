// One signal episode under the OAQ or BAQ scheme (paper §3.2).
//
// The engine wires per-satellite protocol agents over the DES kernel and
// crosslink network and plays out a single signal:
//
//   detection → (simultaneous coverage? → level-3 attempt)
//             → OAQ overlap: withhold, wait for the next overlap window
//             → OAQ underlap: coordination chain S1 → S2 → ... with
//               termination conditions
//                 TC-1  estimated error below threshold,
//                 TC-2  getTime() − t0 > τ − (n·δ + Tg),
//                 TC-3  signal stops (detected by a requested peer whose
//                       footprint finds no signal),
//               "coordination done" propagation downstream, and per-member
//               wait deadlines τ − (n−1)·δ that guarantee a timely alert
//               even when an upstream peer goes fail-silent (Fig. 4)
//             → BAQ: deliver after the initial computation, no coordination.
//
// Two messaging variants (§3.2 last paragraph):
//   * backward messaging (default): done-notifications propagate down the
//     chain; the wait deadline guarantees delivery under fail-silence;
//   * forward responsibility: the requested peer is responsible for
//     forwarding its predecessor's result if it cannot compute — cheaper,
//     but an alert is lost if that peer goes fail-silent.
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "geoloc/accuracy.hpp"
#include "net/crosslink.hpp"
#include "oaq/messages.hpp"
#include "oaq/schedule.hpp"
#include "sim/simulator.hpp"

namespace oaq {

/// Protocol parameters.
struct ProtocolConfig {
  Duration tau = Duration::minutes(5);    ///< alert deadline τ (from t0)
  Duration delta = Duration::seconds(12); ///< max inter-satellite delay δ
  Duration tg = Duration::seconds(6);     ///< max initial computation time Tg
  Rate nu = Rate::per_minute(30.0);       ///< iterative computation rate ν
  /// Cap on a single iterative computation (the paper's bounded-Tg
  /// assumption behind the TC-2 guarantee). Infinite = pure Exp(ν), the
  /// analytic model's assumption.
  Duration computation_cap = Duration::infinity();
  /// TC-1 threshold; <= 0 disables early termination on accuracy.
  double error_threshold_km = 0.0;
  /// Crosslink message-loss probability (downlink alerts are exempt).
  /// The backward-messaging guarantee keeps delivery at-least-once under
  /// loss; lost "done" notifications surface as duplicate alerts.
  double crosslink_loss_probability = 0.0;
  bool backward_messaging = true;  ///< false = forward-responsibility variant
  /// Reliable crosslinks: failed sends are retried with exponential
  /// backoff (ack-timeout 2δ·base^i after attempt i), at most
  /// `link_retry_limit` times. The protocol's deadline math then uses
  /// effective_delta() in place of δ so the TC-2 margin and wait deadlines
  /// absorb the worst-case retry latency.
  bool reliable_links = false;
  int link_retry_limit = 2;
  double link_backoff_base = 2.0;
  /// Self-healing crosslinks (ISSUE 10): a per-plane-pair EWMA health
  /// estimator demotes flapping links; the chain layer avoids demoted
  /// links for new coordination requests until a deterministic probation
  /// (escalating per consecutive demotion, capped by τ so probes stay
  /// τ-feasible) elapses. Off by default — the health path is entirely
  /// branch-gated in CrosslinkNetwork.
  bool self_healing_links = false;
  double link_health_alpha = 0.2;
  double link_demote_below = 0.5;
  double link_restore_above = 0.7;
  Duration link_probation = Duration::seconds(60);
  double link_probation_backoff = 2.0;
  AccuracyModel accuracy{};

  /// Worst-case delivery delay of one logical message: δ when links are
  /// best-effort; with R retries the failed attempts cost their ack
  /// timeouts 2δ·base^i before the final flight's δ, so
  ///   δ_eff = 2δ·(base^R − 1)/(base − 1) + δ   (base > 1)
  ///   δ_eff = 2δ·R + δ                         (base = 1).
  [[nodiscard]] Duration effective_delta() const {
    if (!reliable_links || link_retry_limit == 0) return delta;
    const auto r = static_cast<double>(link_retry_limit);
    const double base = link_backoff_base;
    const double timeouts =
        base > 1.0 ? (std::pow(base, r) - 1.0) / (base - 1.0) : r;
    return 2.0 * timeouts * delta + delta;
  }
};

/// Infrastructure-level telemetry of one episode run, filled by
/// record_telemetry from the network and DES kernel counters — the raw
/// material of the harness-level metrics registry.
struct EpisodeTelemetry {
  std::uint64_t messages_sent = 0;       ///< crosslink + downlink sends
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped_loss = 0;
  std::uint64_t messages_dropped_dead = 0;  ///< dead sender/receiver/unknown
  std::uint64_t messages_dropped_link = 0;  ///< outage / partition windows
  std::uint64_t retries = 0;                ///< reliable-mode retransmissions
  std::uint64_t retries_exhausted = 0;      ///< drops after >= 1 retry
  std::uint64_t faults_injected = 0;        ///< FaultInjector activations
  std::uint64_t sim_events = 0;             ///< DES events processed
  std::uint64_t sim_peak_pending = 0;       ///< DES queue-depth high water
  // Ready-queue maintenance counters (Simulator::QueueStats).
  std::uint64_t sim_tombstones_purged = 0;
  std::uint64_t sim_max_entries = 0;  ///< heap high-water incl. tombstones
  // Link-health + stochastic-fault telemetry (ISSUE 10; all zero unless
  // self-healing links or stochastic clauses are in play).
  std::uint64_t links_demoted = 0;       ///< healthy → demoted transitions
  std::uint64_t links_restored = 0;      ///< demoted → healthy transitions
  std::uint64_t links_demoted_end = 0;   ///< still demoted at episode end
  std::uint64_t link_probes = 0;         ///< attempts over demoted links
  std::uint64_t link_probations = 0;     ///< demotions + escalations
  std::uint64_t lifecycle_deaths = 0;    ///< sat_lifecycle deaths fired
  std::uint64_t lifecycle_spares = 0;    ///< sat_lifecycle spares fired
  std::uint64_t degradation_active_end = 0;  ///< windowed degradation left
};

/// What happened in one episode.
struct EpisodeResult {
  QosLevel level = QosLevel::kMissed;  ///< level of the first alert
  bool alert_delivered = false;
  bool timely = false;          ///< first alert sent by t0 + τ
  int alerts_sent = 0;          ///< >1 indicates a duplicate
  int chain_length = 0;         ///< satellites that contributed measurements
  /// Chain members in join order (detector first). For a target near a
  /// plane-crossing, members can come from different planes — the paper's
  /// footnote 3 notes the algorithm does not require a single plane.
  std::vector<SatelliteId> participants;
  int coordination_requests = 0;
  bool detected = false;
  TimePoint detection{};        ///< t0 (valid when detected)
  TimePoint first_alert_sent{};
  double reported_error_km = 0.0;
  /// Every chain participant either delivered, received "done", or timed
  /// out by its local deadline — nobody is left waiting (§3.2).
  bool all_participants_resolved = true;
  // Termination accounting for the InvariantChecker: every recorded
  // term_* cause counts one termination; a finish() on an agent that was
  // already resolved counts a double (a protocol bug the checker flags);
  // wait-deadline rescues explain duplicate alerts.
  int terminations = 0;
  int double_terminations = 0;
  int wait_rescues = 0;
  /// Health-aware chain re-routes: resends that skipped at least one
  /// avoided (demoted) relay. Bounded by horizon_passes × participants
  /// (invariant I9 — no routing livelock).
  int reroutes = 0;
  /// Passes in the episode's coverage horizon (the re-route search space).
  int horizon_passes = 0;
  EpisodeTelemetry telemetry;
};

class FaultPlan;         // src/fault/plan.hpp
class FaultInjector;     // src/fault/injector.hpp
class InvariantChecker;  // src/fault/invariants.hpp
class EpisodeLedger;     // src/obs/ledger.hpp

/// The crosslink model every protocol engine derives from `cfg`: delays
/// in [0.3δ, δ], crosslink loss with lossless downlinks, the retry policy,
/// and — with self-healing links — the health estimator, whose probation
/// is capped by τ so probes stay τ-feasible.
[[nodiscard]] CrosslinkNetwork::Options crosslink_options(
    const ProtocolConfig& cfg);

/// Copy one finished episode's network, DES and injector counters into
/// `t` (`injector` is nullable: no plan armed).
void record_telemetry(EpisodeTelemetry& t, const CrosslinkNetwork& net,
                      const Simulator& sim, const FaultInjector* injector);

/// Optional fault-injection hooks of one episode run. The plan's clause
/// times are relative to the signal start; the checker (when attached)
/// audits the episode result and the DES accounting after finalize; the
/// ledger (when attached) receives every final drop, retry, and fault
/// activation attributed to this episode's row.
struct EpisodeFaultHooks {
  const FaultPlan* plan = nullptr;
  InvariantChecker* invariants = nullptr;
  EpisodeLedger* ledger = nullptr;
};

/// Runs one signal episode against a coverage schedule.
class EpisodeEngine {
 public:
  /// `scheme` selects OAQ or BAQ behaviour (Scheme from analytic/qos_model).
  EpisodeEngine(const CoverageSchedule& schedule, ProtocolConfig config,
                bool opportunity_adaptive);

  /// Simulate a signal starting at `signal_start` lasting `signal_duration`.
  /// `rng` drives computation times and message delays. Satellites listed
  /// in `fail_silent` go silent at the given times (fault injection).
  struct Fault {
    SatelliteId satellite;
    TimePoint at;
  };
  /// `known_failed`: satellites the group-membership service (src/net/
  /// membership) has already removed from the view — the coordination
  /// chain skips their passes instead of paying a wait-deadline timeout.
  /// `trace`: optional per-shard event buffer (null = tracing disabled);
  /// `episode_id` stamps the trace events (and the message target id) so
  /// a sharded Monte-Carlo run can attribute events to episodes.
  /// `hooks`: optional fault plan + invariant checker (see
  /// EpisodeFaultHooks). The injector's RNG is a dedicated fork of `rng`,
  /// so attaching a plan never perturbs the protocol's own draws.
  [[nodiscard]] EpisodeResult run(
      TimePoint signal_start, Duration signal_duration, Rng& rng,
      const std::vector<Fault>& faults = {},
      const std::set<SatelliteId>& known_failed = {},
      ShardTraceBuffer* trace = nullptr, int episode_id = 0,
      const EpisodeFaultHooks* hooks = nullptr) const;

 private:
  const CoverageSchedule* schedule_;
  ProtocolConfig config_;
  bool oaq_;
};

}  // namespace oaq
