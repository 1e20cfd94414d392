#include "oaq/pooled_episode.hpp"

#include "common/error.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"

namespace oaq {

PooledEpisodeRunner::PooledEpisodeRunner(
    const CoverageSchedule& schedule,
    const std::vector<SatelliteId>& satellites, const ProtocolConfig& cfg,
    bool opportunity_adaptive, const FaultPlan* plan)
    : cfg_(cfg),
      oaq_(opportunity_adaptive),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
      net_(sim_, crosslink_options(cfg), Rng(0)),  // re-seeded per episode
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
  // Same gate as EpisodeEngine::run: attached only when links can fail
  // for good, so the default path's drop accounting stays identical.
  if (cfg_.reliable_links || cfg_.self_healing_links || plan_ != nullptr) {
    net_.set_drop_handler([this](const Envelope& env, DropReason reason) {
      episode_.handle_send_failure(env, reason);
    });
  }
}

const EpisodeResult& PooledEpisodeRunner::run_episode(
    std::int64_t e, const Rng& protocol_rng, TimePoint start,
    Duration duration, ShardTraceBuffer* trace, InvariantChecker* invariants,
    EpisodeLedger* ledger) {
  // The same stream layout as EpisodeEngine::run: protocol noise from
  // ep.fork(3), network delays/losses from its 0x6e6574 fork, injector
  // draws from its 0x666c74 fork. fork() is const, so the derivation
  // order is irrelevant — only the draw order during the run matters,
  // and that is the (identical) DES event order.
  protocol_rng_ = protocol_rng;
  sim_.reset();
  net_.reset(protocol_rng_.fork(0x6e6574));
  net_.set_trace(trace, e);
  net_.set_ledger(ledger);
  episode_.reset_for(static_cast<int>(e), protocol_rng_, trace);
  injector_.reset();

  if (!episode_.arm(start, duration)) {
    // The signal escapes surveillance entirely — EpisodeEngine::run's
    // early return, having touched nothing observable.
    return episode_.result();
  }
  if (plan_ != nullptr) {
    injector_.emplace(sim_, net_, *plan_, protocol_rng_.fork(0x666c74), trace,
                      e, ledger, &expander_);
    // Armed at the episode's own signal start: the jittered start in
    // geometric mode, the run-wide anchor in analytic mode.
    injector_->arm(start);
  }

  sim_.run(200000);
  episode_.finalize();

  // Copy-assign into the reused buffer so the participants capacity
  // survives — steady-state episodes retire without allocating.
  result_buf_ = episode_.result();
  record_telemetry(result_buf_.telemetry, net_, sim_,
                   injector_ ? &*injector_ : nullptr);

  if (invariants != nullptr) {
    invariants->check_episode(e, result_buf_, cfg_);
    invariants->check_simulator(e, sim_.accounting());
  }
  return result_buf_;
}

}  // namespace oaq
