#include "oaq/pooled_episode.hpp"

#include "common/error.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"

namespace oaq {
namespace {

/// The network options EpisodeEngine::run derives from the protocol
/// configuration — kept in lockstep (the pooled context must be
/// indistinguishable from a per-episode network).
CrosslinkNetwork::Options net_options(const ProtocolConfig& cfg) {
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

}  // namespace

PooledEpisodeRunner::PooledEpisodeRunner(
    const CoverageSchedule& schedule,
    const std::vector<SatelliteId>& satellites, const ProtocolConfig& cfg,
    bool opportunity_adaptive, const FaultPlan* plan)
    : cfg_(cfg),
      oaq_(opportunity_adaptive),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
      net_(sim_, net_options(cfg), Rng(0)),  // re-seeded per episode
      episode_(/*target_id=*/0, sim_, net_, schedule, cfg_, oaq_,
               protocol_rng_, /*calendar=*/nullptr, &no_known_failed_,
               /*trace=*/nullptr) {
  OAQ_REQUIRE(!satellites.empty(), "need at least one satellite");
  OAQ_REQUIRE(cfg.tau > Duration::zero(), "deadline must be positive");
  // Handlers are registered once for the whole constellation and survive
  // every reset: an episode's horizon satellites are always a subset of
  // the active set, and no protocol message ever targets a satellite
  // outside its episode's horizon, so the extra registrations are
  // unreachable — the delivered/dropped accounting matches per-episode
  // registration exactly. Registration on the shard's own thread also
  // first-touches the dense per-plane tables, keeping the pooled arena
  // local to the shard.
  for (const SatelliteId id : satellites) {
    net_.register_node(Address::sat(id), [this, id](const Envelope& env) {
      episode_.handle_satellite_message(id, env);
    });
  }
  net_.register_node(Address::ground(), [this](const Envelope& env) {
    if (const auto* alert = env.payload.get_if<AlertMessage>()) {
      episode_.handle_ground_alert(*alert);
    }
  });
  // Same gate as the scalar engine: attached only when links can fail for
  // good, so the default path's drop accounting stays identical.
  if (cfg_.reliable_links || cfg_.self_healing_links || plan_ != nullptr) {
    net_.set_drop_handler([this](const Envelope& env, DropReason reason) {
      episode_.handle_send_failure(env, reason);
    });
  }
}

const EpisodeResult& PooledEpisodeRunner::run_episode(
    std::int64_t e, const Rng& protocol_rng, TimePoint start,
    Duration duration, ShardTraceBuffer* trace, InvariantChecker* invariants) {
  // The same stream layout as the scalar loop: protocol noise from
  // ep.fork(3), network delays/losses from its 0x6e6574 fork, injector
  // draws from its 0x666c74 fork. fork() is const, so the derivation
  // order is irrelevant — only the draw order during the run matters,
  // and that is the (identical) DES event order.
  protocol_rng_ = protocol_rng;
  sim_.reset();
  net_.reset(protocol_rng_.fork(0x6e6574));
  net_.set_trace(trace, e);
  episode_.reset_for(static_cast<int>(e), protocol_rng_, trace);
  injector_.reset();

  if (!episode_.arm(start, duration)) {
    // The signal escapes surveillance entirely — the scalar engine's
    // early return, having touched nothing observable.
    return episode_.result();
  }
  if (plan_ != nullptr) {
    injector_.emplace(sim_, net_, *plan_, protocol_rng_.fork(0x666c74), trace,
                      e, /*ledger=*/nullptr, &expander_);
    // The scalar engine arms at its signal-start argument, which in
    // geometric mode is the episode's jittered start.
    injector_->arm(start);
  }

  sim_.run(200000);
  episode_.finalize();

  // Copy-assign into the reused buffer so the participants capacity
  // survives — steady-state episodes retire without allocating.
  result_buf_ = episode_.result();
  const NetworkStats& net_stats = net_.stats();
  result_buf_.telemetry.messages_sent = net_stats.sent;
  result_buf_.telemetry.messages_delivered = net_stats.delivered;
  result_buf_.telemetry.messages_dropped_loss = net_stats.dropped_loss;
  result_buf_.telemetry.messages_dropped_dead =
      net_stats.dropped_dead_sender + net_stats.dropped_dead_receiver +
      net_stats.dropped_unregistered;
  result_buf_.telemetry.messages_dropped_link = net_stats.dropped_link;
  result_buf_.telemetry.retries = net_stats.retries;
  result_buf_.telemetry.retries_exhausted = net_stats.retries_exhausted;
  result_buf_.telemetry.links_demoted = net_stats.links_demoted;
  result_buf_.telemetry.links_restored = net_stats.links_restored;
  result_buf_.telemetry.links_demoted_end =
      static_cast<std::uint64_t>(net_.demoted_link_count());
  result_buf_.telemetry.link_probes = net_stats.link_probes;
  result_buf_.telemetry.link_probations = net_stats.link_probations;
  result_buf_.telemetry.degradation_active_end =
      net_.degradation_active() ? 1 : 0;
  if (injector_) {
    result_buf_.telemetry.faults_injected = injector_->stats().activations;
    result_buf_.telemetry.lifecycle_deaths = injector_->stats().lifecycle_deaths;
    result_buf_.telemetry.lifecycle_spares = injector_->stats().lifecycle_spares;
  }
  result_buf_.telemetry.sim_events = sim_.processed_count();
  result_buf_.telemetry.sim_peak_pending = sim_.peak_pending_count();
  const QueueStats& qs = sim_.queue_stats();
  result_buf_.telemetry.sim_tombstones_purged = qs.tombstones_purged;
  result_buf_.telemetry.sim_max_entries = qs.max_entries;

  if (invariants != nullptr) {
    invariants->check_episode(e, result_buf_, cfg_);
    invariants->check_simulator(e, sim_.accounting());
  }
  return result_buf_;
}

}  // namespace oaq
