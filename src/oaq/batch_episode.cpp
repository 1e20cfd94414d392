#include "oaq/batch_episode.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"

namespace oaq {
namespace {

/// The network options EpisodeEngine::run derives from the protocol
/// configuration — kept in lockstep (the batched context must be
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

bool analytic_signal_detected(const PlaneGeometry& geometry, int k,
                              Duration phase, TimePoint signal_start,
                              Duration signal_duration, Duration tau) {
  const Duration sig_start = signal_start.since_origin();
  const Duration sig_end = sig_start + signal_duration;
  // The exact pass horizon TargetEpisode::arm() queries.
  const Duration from = sig_start - Duration::minutes(20);
  const Duration to = sig_start +
                      std::min(signal_duration, Duration::minutes(30)) + tau +
                      Duration::minutes(60);
  const Duration tr = geometry.tr(k);
  const Duration tc = geometry.tc();
  // Same enumeration — and the same floating-point expressions — as
  // AnalyticSchedule::passes_into, without materializing the pass list.
  const double from_c = (from - tc / 2.0 - phase) / tr;
  const double to_c = (to + tc / 2.0 - phase) / tr;
  for (long j = static_cast<long>(std::floor(from_c));
       j <= static_cast<long>(std::ceil(to_c)); ++j) {
    const Duration center = phase + tr * static_cast<double>(j);
    const Duration start = center - tc / 2.0;
    const Duration end = center + tc / 2.0;
    if (end < from || start > to) continue;
    // Passes arrive in ascending start order, so arm()'s two scans (any
    // covering pass, else the first pass at/after the signal start)
    // collapse into one: a pass covering the signal start decides armed;
    // past the signal start, the first surviving pass decides by
    // aliveness — later passes can neither cover nor come earlier.
    if (start <= sig_start && sig_start < end) return true;
    if (start >= sig_start) return start < sig_end;
  }
  return false;
}

BatchEpisodeEngine::DesContext::DesContext(
    Simulator& sim, const PlaneGeometry& geometry, int k,
    const ProtocolConfig& cfg, bool opportunity_adaptive,
    const std::set<SatelliteId>& known_failed, bool want_drop_handler)
    : schedule(geometry, k, Duration::zero()),
      net(sim, net_options(cfg), Rng(0)),  // re-seeded per lane by reset()
      episode(/*target_id=*/0, sim, net, schedule, cfg, opportunity_adaptive,
              protocol_rng, /*calendar=*/nullptr, &known_failed,
              /*trace=*/nullptr) {
  // Handlers are registered once for the whole plane and survive every
  // reset: an episode's horizon satellites are always a subset of the k
  // slots, and no protocol message ever targets a satellite outside its
  // episode's horizon, so the extra registrations are unreachable — the
  // delivered/dropped accounting matches per-episode registration exactly.
  for (int slot = 0; slot < k; ++slot) {
    const SatelliteId id{0, slot};
    net.register_node(Address::sat(id), [this, id](const Envelope& env) {
      episode.handle_satellite_message(id, env);
    });
  }
  net.register_node(Address::ground(), [this](const Envelope& env) {
    if (const auto* alert = env.payload.get_if<AlertMessage>()) {
      episode.handle_ground_alert(*alert);
    }
  });
  // Same gate as the scalar engine: attached only when links can fail for
  // good, so the default path's drop accounting stays identical.
  if (want_drop_handler) {
    net.set_drop_handler([this](const Envelope& env, DropReason reason) {
      episode.handle_send_failure(env, reason);
    });
  }
}

BatchEpisodeEngine::BatchEpisodeEngine(PlaneGeometry geometry, int k,
                                       const ProtocolConfig& cfg,
                                       bool opportunity_adaptive,
                                       const DurationDistribution& duration_law,
                                       Rng episode_rng, TimePoint signal_start,
                                       const FaultPlan* plan, int)
    : geometry_(geometry),
      k_(k),
      cfg_(cfg),
      oaq_(opportunity_adaptive),
      duration_law_(&duration_law),
      episode_rng_(episode_rng),
      signal_start_(signal_start),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
      ctx_(sim_, geometry_, k_, cfg_, oaq_, no_known_failed_,
           cfg_.reliable_links || cfg_.self_healing_links || plan_ != nullptr) {
  OAQ_REQUIRE(k > 0, "need at least one satellite");
  OAQ_REQUIRE(cfg.tau > Duration::zero(), "deadline must be positive");
}

bool BatchEpisodeEngine::lane_detects(Duration phase, Duration duration) const {
  return analytic_signal_detected(geometry_, k_, phase, signal_start_,
                                  duration, cfg_.tau);
}

void BatchEpisodeEngine::run_des_lane(std::int64_t e, Duration phase,
                                      Duration duration,
                                      ShardTraceBuffer* trace,
                                      InvariantChecker* invariants,
                                      const ResultSink& sink) {
  // The same stream layout as the scalar loop: protocol noise from
  // ep.fork(3), network delays/losses from its 0x6e6574 fork, injector
  // draws from its 0x666c74 fork. fork() is const, so the derivation
  // order is irrelevant — only the draw order during the run matters,
  // and that is the (identical) DES event order.
  DesContext& ctx = ctx_;
  const Rng ep = episode_rng_.fork(static_cast<std::uint64_t>(e));
  ctx.protocol_rng = ep.fork(3);
  sim_.reset();
  ctx.net.reset(ctx.protocol_rng.fork(0x6e6574));
  ctx.net.set_trace(trace, e);
  ctx.net.set_ledger(ledger_);
  ctx.schedule = AnalyticSchedule(geometry_, k_, phase);
  ctx.episode.reset_for(static_cast<int>(e), ctx.protocol_rng, trace);
  ctx.injector.reset();

  if (!ctx.episode.arm(signal_start_, duration)) {
    // The closed-form classifier is false-positive-safe: arm() is still
    // the authority, and a rejected lane retires with the scalar's
    // default result having touched nothing observable.
    sink(e, ctx.episode.result());
    return;
  }
  if (plan_ != nullptr) {
    ctx.injector.emplace(sim_, ctx.net, *plan_, ctx.protocol_rng.fork(0x666c74),
                         trace, e, ledger_, &ctx.expander);
    ctx.injector->arm(signal_start_);
  }

  sim_.run(200000);
  ctx.episode.finalize();

  // Copy-assign into the reused buffer so the participants capacity
  // survives — steady-state lanes retire without allocating.
  result_buf_ = ctx.episode.result();
  const NetworkStats& net_stats = ctx.net.stats();
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
      static_cast<std::uint64_t>(ctx.net.demoted_link_count());
  result_buf_.telemetry.link_probes = net_stats.link_probes;
  result_buf_.telemetry.link_probations = net_stats.link_probations;
  result_buf_.telemetry.degradation_active_end =
      ctx.net.degradation_active() ? 1 : 0;
  if (ctx.injector) {
    result_buf_.telemetry.faults_injected = ctx.injector->stats().activations;
    result_buf_.telemetry.lifecycle_deaths =
        ctx.injector->stats().lifecycle_deaths;
    result_buf_.telemetry.lifecycle_spares =
        ctx.injector->stats().lifecycle_spares;
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
  sink(e, result_buf_);
}

void BatchEpisodeEngine::run(std::int64_t begin, std::int64_t end,
                             ShardTraceBuffer* trace,
                             InvariantChecker* invariants,
                             const ResultSink& sink, SpanArena* spans,
                             EpisodeLedger* ledger) {
  OAQ_REQUIRE(begin <= end, "episode range must be nondecreasing");
  ledger_ = ledger;
  const Duration tr = geometry_.tr(k_);
  // Block spans are recorded retroactively with shared boundary
  // timestamps: one clock read ends a block's "drain" AND starts the next
  // block's "prologue", and the mid read splits the two — two reads per
  // block instead of four, which is what keeps the profiler inside its
  // <= 5% overhead gate (bench/span_overhead). Per-lane spans would cost
  // two reads per episode; block granularity loses nothing because the
  // export aggregates by call path anyway.
  auto t_block = spans != nullptr ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  for (std::int64_t b = begin; b < end; b += kEpisodeBatchWidth) {
    const int n =
        static_cast<int>(std::min<std::int64_t>(kEpisodeBatchWidth, end - b));
    // SoA prologue: sample every lane's phase and duration from the same
    // per-index forks the scalar loop draws, then classify closed-form.
    int armed = 0;
    for (int i = 0; i < n; ++i) {
      const Rng ep = episode_rng_.fork(static_cast<std::uint64_t>(b + i));
      Rng phase_rng = ep.fork(1);
      Rng duration_rng = ep.fork(2);
      lane_phase_[i] = phase_rng.uniform(Duration::zero(), tr);
      lane_duration_[i] = duration_law_->sample(duration_rng);
      lane_armed_[i] = lane_detects(lane_phase_[i], lane_duration_[i]);
      armed += lane_armed_[i] ? 1 : 0;
    }
    if (spans != nullptr) {
      const auto t_mid = std::chrono::steady_clock::now();
      spans->enter_at("prologue", t_block);
      spans->add_items(n);
      spans->exit_at(t_mid);
      t_block = t_mid;  // the drain span opens here, closed below
    }
    ++stats_.batches;
    stats_.episodes += static_cast<std::uint64_t>(n);
    stats_.des_lanes += static_cast<std::uint64_t>(armed);
    stats_.escaped += static_cast<std::uint64_t>(n - armed);
    if (n == kEpisodeBatchWidth) ++stats_.occupancy[armed];
    // Retirement in episode order: escaped lanes compact out immediately
    // (the scalar's failed-arm result is the default), armed lanes drain
    // one at a time through the shared context — so the trace stream and
    // observation order are identical to the scalar loop.
    for (int i = 0; i < n; ++i) {
      const std::int64_t e = b + i;
      if (!lane_armed_[i]) {
        sink(e, escaped_result_);
      } else {
        run_des_lane(e, lane_phase_[i], lane_duration_[i], trace, invariants,
                     sink);
      }
    }
    if (spans != nullptr) {
      const auto t_end = std::chrono::steady_clock::now();
      spans->enter_at("drain", t_block);
      spans->add_items(armed);
      spans->exit_at(t_end);
      t_block = t_end;
    }
  }
}

}  // namespace oaq
