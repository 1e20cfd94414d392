#include "oaq/episode.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "oaq/target_episode.hpp"

namespace oaq {

EpisodeEngine::EpisodeEngine(const CoverageSchedule& schedule,
                             ProtocolConfig config, bool opportunity_adaptive)
    : schedule_(&schedule), config_(config), oaq_(opportunity_adaptive) {
  OAQ_REQUIRE(config.tau > Duration::zero(), "deadline must be positive");
  OAQ_REQUIRE(config.delta >= Duration::zero(), "delta must be nonnegative");
  OAQ_REQUIRE(config.tg >= Duration::zero(), "Tg must be nonnegative");
  OAQ_REQUIRE(config.nu > Rate::zero(), "computation rate must be positive");
}

EpisodeResult EpisodeEngine::run(TimePoint signal_start,
                                 Duration signal_duration, Rng& rng,
                                 const std::vector<Fault>& faults,
                                 const std::set<SatelliteId>& known_failed,
                                 ShardTraceBuffer* trace, int episode_id,
                                 const EpisodeFaultHooks* hooks) const {
  OAQ_REQUIRE(signal_duration > Duration::zero(),
              "signal duration must be positive");
  const FaultPlan* plan =
      hooks != nullptr && hooks->plan != nullptr && !hooks->plan->empty()
          ? hooks->plan
          : nullptr;

  Simulator sim;
  CrosslinkNetwork::Options net_opt;
  net_opt.min_delay = config_.delta * 0.3;
  net_opt.max_delay = config_.delta;
  net_opt.loss_probability = config_.crosslink_loss_probability;
  net_opt.lossless_to_ground = true;
  net_opt.reliable = config_.reliable_links;
  net_opt.retry_limit = config_.link_retry_limit;
  net_opt.backoff_base = config_.link_backoff_base;
  if (config_.self_healing_links) {
    net_opt.health.enabled = true;
    net_opt.health.alpha = config_.link_health_alpha;
    net_opt.health.demote_below = config_.link_demote_below;
    net_opt.health.restore_above = config_.link_restore_above;
    net_opt.health.probation = config_.link_probation;
    net_opt.health.probation_backoff = config_.link_probation_backoff;
    // τ-feasibility: escalating probations never push a probe past the
    // alert deadline's useful horizon.
    net_opt.health.probation_cap = config_.tau;
  }
  CrosslinkNetwork net(sim, net_opt, rng.fork(0x6e6574));
  net.set_trace(trace, episode_id);
  if (hooks != nullptr) net.set_ledger(hooks->ledger);

  TargetEpisode episode(episode_id, sim, net, *schedule_, config_, oaq_, rng,
                        /*calendar=*/nullptr, &known_failed, trace);
  if (!episode.arm(signal_start, signal_duration)) {
    // The signal escapes surveillance entirely (paper §2, worst case).
    return episode.result();
  }

  for (const SatelliteId id : episode.horizon_satellites()) {
    net.register_node(Address::sat(id), [&episode, id](const Envelope& env) {
      episode.handle_satellite_message(id, env);
    });
  }
  net.register_node(Address::ground(), [&episode](const Envelope& env) {
    if (const auto* alert = env.payload.get_if<AlertMessage>()) {
      episode.handle_ground_alert(*alert);
    }
  });

  // Graceful degradation: when links may fail for good (retry budgets or
  // an injected plan), a finally-dropped coordination request re-routes to
  // the next live downstream peer. Left detached otherwise so the default
  // path is byte-identical to the pre-fault engine.
  if (config_.reliable_links || config_.self_healing_links ||
      plan != nullptr) {
    net.set_drop_handler([&episode](const Envelope& env, DropReason reason) {
      episode.handle_send_failure(env, reason);
    });
  }

  for (const auto& f : faults) {
    const TimePoint at = std::max(f.at, sim.now());
    sim.schedule_at(at, [&net, sat = f.satellite] {
      net.fail_silent(Address::sat(sat));
    });
  }

  // The injector draws (if a future clause type ever randomizes) from a
  // dedicated const fork, so attaching a plan never perturbs the protocol
  // or network streams above.
  std::optional<FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(sim, net, *plan, rng.fork(0x666c74), trace, episode_id,
                     hooks->ledger);
    injector->arm(signal_start);
  }

  sim.run(200000);
  episode.finalize();

  EpisodeResult result = episode.result();
  const NetworkStats& net_stats = net.stats();
  result.telemetry.messages_sent = net_stats.sent;
  result.telemetry.messages_delivered = net_stats.delivered;
  result.telemetry.messages_dropped_loss = net_stats.dropped_loss;
  result.telemetry.messages_dropped_dead = net_stats.dropped_dead_sender +
                                           net_stats.dropped_dead_receiver +
                                           net_stats.dropped_unregistered;
  result.telemetry.messages_dropped_link = net_stats.dropped_link;
  result.telemetry.retries = net_stats.retries;
  result.telemetry.retries_exhausted = net_stats.retries_exhausted;
  result.telemetry.links_demoted = net_stats.links_demoted;
  result.telemetry.links_restored = net_stats.links_restored;
  result.telemetry.links_demoted_end =
      static_cast<std::uint64_t>(net.demoted_link_count());
  result.telemetry.link_probes = net_stats.link_probes;
  result.telemetry.link_probations = net_stats.link_probations;
  result.telemetry.degradation_active_end =
      net.degradation_active() ? 1 : 0;
  if (injector) {
    result.telemetry.faults_injected = injector->stats().activations;
    result.telemetry.lifecycle_deaths = injector->stats().lifecycle_deaths;
    result.telemetry.lifecycle_spares = injector->stats().lifecycle_spares;
  }
  result.telemetry.sim_events = sim.processed_count();
  result.telemetry.sim_peak_pending = sim.peak_pending_count();
  const QueueStats& qs = sim.queue_stats();
  result.telemetry.sim_tombstones_purged = qs.tombstones_purged;
  result.telemetry.sim_max_entries = qs.max_entries;

  if (hooks != nullptr && hooks->invariants != nullptr) {
    hooks->invariants->check_episode(episode_id, result, config_);
    hooks->invariants->check_simulator(episode_id, sim.accounting());
  }
  return result;
}

}  // namespace oaq
