#include "oaq/episode.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "oaq/target_episode.hpp"

namespace oaq {

CrosslinkNetwork::Options crosslink_options(const ProtocolConfig& cfg) {
  CrosslinkNetwork::Options opt;
  opt.min_delay = cfg.delta * 0.3;
  opt.max_delay = cfg.delta;
  opt.loss_probability = cfg.crosslink_loss_probability;
  opt.lossless_to_ground = true;
  opt.reliable = cfg.reliable_links;
  opt.retry_limit = cfg.link_retry_limit;
  opt.backoff_base = cfg.link_backoff_base;
  if (cfg.self_healing_links) {
    opt.health.enabled = true;
    opt.health.alpha = cfg.link_health_alpha;
    opt.health.demote_below = cfg.link_demote_below;
    opt.health.restore_above = cfg.link_restore_above;
    opt.health.probation = cfg.link_probation;
    opt.health.probation_backoff = cfg.link_probation_backoff;
    opt.health.probation_cap = cfg.tau;  // τ-feasibility cap
  }
  return opt;
}

void record_telemetry(EpisodeTelemetry& t, const CrosslinkNetwork& net,
                      const Simulator& sim, const FaultInjector* injector) {
  const NetworkStats& ns = net.stats();
  t.messages_sent = ns.sent;
  t.messages_delivered = ns.delivered;
  t.messages_dropped_loss = ns.dropped_loss;
  t.messages_dropped_dead =
      ns.dropped_dead_sender + ns.dropped_dead_receiver +
      ns.dropped_unregistered;
  t.messages_dropped_link = ns.dropped_link;
  t.retries = ns.retries;
  t.retries_exhausted = ns.retries_exhausted;
  t.links_demoted = ns.links_demoted;
  t.links_restored = ns.links_restored;
  t.links_demoted_end = static_cast<std::uint64_t>(net.demoted_link_count());
  t.link_probes = ns.link_probes;
  t.link_probations = ns.link_probations;
  t.degradation_active_end = net.degradation_active() ? 1 : 0;
  if (injector != nullptr) {
    t.faults_injected = injector->stats().activations;
    t.lifecycle_deaths = injector->stats().lifecycle_deaths;
    t.lifecycle_spares = injector->stats().lifecycle_spares;
  }
  t.sim_events = sim.processed_count();
  t.sim_peak_pending = sim.peak_pending_count();
  const QueueStats& qs = sim.queue_stats();
  t.sim_tombstones_purged = qs.tombstones_purged;
  t.sim_max_entries = qs.max_entries;
}

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
  CrosslinkNetwork net(sim, crosslink_options(config_), rng.fork(0x6e6574));
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
  record_telemetry(result.telemetry, net, sim,
                   injector ? &*injector : nullptr);

  if (hooks != nullptr && hooks->invariants != nullptr) {
    hooks->invariants->check_episode(episode_id, result, config_);
    hooks->invariants->check_simulator(episode_id, sim.accounting());
  }
  return result;
}

}  // namespace oaq
