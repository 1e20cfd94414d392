#include "oaq/campaign.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "oaq/batch_episode.hpp"
#include "orbit/shared_visibility_cache.hpp"

namespace oaq {
namespace {

/// Visibility-window quantum covering every episode a replication can arm:
/// arrivals start 60 min into the run, the horizon bounds the last start,
/// and an episode's pass queries extend at most τ plus post-roll past it.
/// One quantized window — one Kepler sweep — therefore serves the whole
/// replication, where the former fixed 1 h default recomputed a sweep per
/// hour of horizon.
Duration campaign_visibility_quantum(const CampaignConfig& config) {
  return Duration::minutes(60) + config.horizon + config.protocol.tau +
         Duration::hours(2);
}

/// Mergeable tallies for one or more campaign replications. Counters and
/// pmf weights are integral, so any grouping merges exactly; the latency
/// RunningStat is folded in a fixed replication order (one shard per
/// replication), so the floating-point result is also independent of the
/// worker count.
struct CampaignAccum {
  std::int64_t signals = 0;
  DiscretePmf levels;
  std::int64_t delivered = 0;
  std::int64_t untimely = 0;
  std::int64_t duplicates = 0;
  RunningStat latency_min;
  std::int64_t contended = 0;
  double queueing_delay_s = 0.0;
  MetricsRegistry metrics;  ///< per-replication; empty when metrics are off
  InvariantChecker invariants;  ///< idle when checks are off
  EpisodeLedger ledger;  ///< per-target attribution; empty when disabled

  void merge(const CampaignAccum& other) {
    signals += other.signals;
    levels.merge(other.levels);
    delivered += other.delivered;
    untimely += other.untimely;
    duplicates += other.duplicates;
    latency_min.merge(other.latency_min);
    contended += other.contended;
    queueing_delay_s += other.queueing_delay_s;
    metrics.merge(other.metrics);
    invariants.merge(other.invariants);
    ledger.merge(other.ledger);
  }
};

/// One replication: the pre-parallel run_campaign body, seeded by `master`.
/// `trace` is this replication's shard buffer (null = tracing disabled);
/// `want_metrics` fills the accumulator's registry.
CampaignAccum run_single_campaign(const CampaignConfig& config, Rng master,
                                  ShardTraceBuffer* trace, bool want_metrics,
                                  const SharedVisibilityCache* shared_cache,
                                  SpanArena* spans) {
  const ScopedSpan replication_span(spans, "replication");
  Rng arrivals_rng = master.fork(1);
  Rng durations_rng = master.fork(2);
  Rng net_rng = master.fork(3);
  Rng phase_rng = master.fork(4);

  const std::shared_ptr<const DurationDistribution> duration_law =
      config.duration_distribution
          ? config.duration_distribution
          : std::make_shared<ExponentialDuration>(Rate::per_minute(0.2));

  Simulator sim;
  CrosslinkNetwork net(sim, crosslink_options(config.protocol), net_rng);
  // Episodes share the network; network events carry episode = -1 unless
  // per-envelope attribution is on (then each xlink_* event names the
  // owning target — the golden campaign trace keeps the -1 default).
  net.set_trace(trace, /*episode_id=*/-1);
  net.set_trace_attribution(config.episode_attribution);

  // Per-target attribution ledger (ISSUE 7): every final drop, retry, and
  // fault activation lands on the owning target's row. The I7 audit reads
  // it, and the caller can request a copy via config.ledger.
  CampaignAccum out;
  const bool want_ledger =
      config.check_invariants || config.ledger != nullptr;
  if (want_ledger) net.set_ledger(&out.ledger);

  // One pass pattern for the whole campaign; signal arrival times are
  // uniform over the pattern period by Poisson stationarity. Geometric
  // mode swaps the analytic plane for real constellation geometry, read
  // from the run-wide frozen shared cache (replication-local hit stats),
  // whose horizon-covering quantum needs one Kepler sweep per run.
  VisibilityCacheStats shared_stats;
  std::unique_ptr<const CoverageSchedule> schedule;
  const bool analytic = config.constellation == nullptr;
  // The campaign-wide pass phase, hoisted so the arrival pre-screen below
  // classifies against the same draw the schedule is built from.
  const Duration phase =
      analytic ? phase_rng.uniform(Duration::zero(),
                                   config.geometry.tr(config.k))
               : Duration::zero();
  if (shared_cache != nullptr) {
    schedule = std::make_unique<GeometricSchedule>(*shared_cache,
                                                   config.target,
                                                   &shared_stats);
  } else {
    schedule = std::make_unique<AnalyticSchedule>(config.geometry, config.k,
                                                  phase);
  }

  ComputeCalendar calendar;
  ComputeCalendar* calendar_ptr =
      config.compute_contention ? &calendar : nullptr;

  // Draw the arrival process and arm every episode up front (each only
  // schedules its own detection event).
  std::vector<std::unique_ptr<Rng>> episode_rngs;
  std::vector<std::unique_ptr<TargetEpisode>> episodes;
  TimePoint t = TimePoint::origin() + Duration::minutes(60);
  const TimePoint end = TimePoint::origin() + config.horizon;
  int target_id = 0;
  // The arrivals span brackets the Poisson draw + arm loop; items = the
  // signals admitted. enter/exit instead of ScopedSpan keeps the later
  // drain/finalize spans siblings, not children.
  if (spans != nullptr) spans->enter("arrivals");
  while (true) {
    t = t + arrivals_rng.exponential(config.signal_arrival_rate);
    if (t >= end) break;
    const Duration duration = duration_law->sample(durations_rng);
    if (analytic &&
        !analytic_signal_detected(config.geometry, config.k, phase, t,
                                  duration, config.protocol.tau)) {
      // Closed-form escape: building the RNG stream and the episode would
      // only let arm() reject it — record the identical kMissed outcome
      // without either. False positives fall through to arm(), which
      // stays the authority.
      out.levels.add(to_int(QosLevel::kMissed));
      ++target_id;
      ++out.signals;
      continue;
    }
    episode_rngs.push_back(std::make_unique<Rng>(
        master.fork(100 + static_cast<std::uint64_t>(target_id))));
    auto episode = std::make_unique<TargetEpisode>(
        target_id, sim, net, *schedule, config.protocol,
        config.opportunity_adaptive, *episode_rngs.back(), calendar_ptr,
        nullptr, trace);
    if (episode->arm(t, duration)) {
      episodes.push_back(std::move(episode));
    } else {
      out.levels.add(to_int(QosLevel::kMissed));  // escaped surveillance
    }
    ++target_id;
    ++out.signals;
  }
  if (spans != nullptr) {
    spans->add_items(out.signals);
    spans->exit();
  }
  // Row capacity for every admitted target: recording during the drain
  // below never grows the ledger (zero steady-state allocations).
  if (want_ledger) out.ledger.reserve(target_id);

  // Owner index: every coordination and alert payload names its target,
  // so each handler hands the envelope to exactly that target's episode.
  // Escaped and pre-screened targets stay null — nothing of theirs is
  // ever in flight. Offering an envelope to any other episode would be a
  // no-op (each filters by target id), so routing leaves event order, RNG
  // draws and every output byte unchanged while making dispatch O(1).
  std::vector<TargetEpisode*> owner(static_cast<std::size_t>(target_id),
                                    nullptr);
  for (auto& ep : episodes) {
    owner[static_cast<std::size_t>(ep->target_id())] = ep.get();
  }
  const auto owner_of = [&owner](int id) -> TargetEpisode* {
    return id >= 0 && static_cast<std::size_t>(id) < owner.size()
               ? owner[static_cast<std::size_t>(id)]
               : nullptr;
  };

  // One handler per satellite, plus the ground station. Geometric passes
  // can involve any active satellite of the constellation.
  std::vector<SatelliteId> sats;
  if (config.constellation != nullptr) {
    sats = config.constellation->active_satellites();
  } else {
    for (int slot = 0; slot < config.k; ++slot) sats.push_back({0, slot});
  }
  for (const SatelliteId id : sats) {
    net.register_node(Address::sat(id), [owner_of, id](const Envelope& env) {
      int target = -1;
      if (const auto* req = env.payload.get_if<CoordinationRequest>()) {
        target = req->target_id;
      } else if (const auto* done = env.payload.get_if<CoordinationDone>()) {
        target = done->target_id;
      }
      if (TargetEpisode* ep = owner_of(target)) {
        ep->handle_satellite_message(id, env);
      }
    });
  }
  net.register_node(Address::ground(), [owner_of](const Envelope& env) {
    const auto* alert = env.payload.get_if<AlertMessage>();
    if (alert == nullptr) return;
    if (TargetEpisode* ep = owner_of(alert->target_id)) {
      ep->handle_ground_alert(*alert);
    }
  });

  // Fault plan (times relative to the campaign origin) and graceful
  // degradation: a finally-dropped coordination request goes back to its
  // owning episode for a re-route. Both stay detached on the default
  // path, keeping it byte-identical.
  const FaultPlan* plan =
      config.fault_plan != nullptr && !config.fault_plan->empty()
          ? config.fault_plan
          : nullptr;
  if (config.protocol.reliable_links || config.protocol.self_healing_links ||
      plan != nullptr) {
    net.set_drop_handler([owner_of](const Envelope& env, DropReason reason) {
      const auto* req = env.payload.get_if<CoordinationRequest>();
      if (req == nullptr) return;
      if (TargetEpisode* ep = owner_of(req->target_id)) {
        ep->handle_send_failure(env, reason);
      }
    });
  }
  std::optional<FaultInjector> injector;
  if (plan != nullptr) {
    // Campaign clauses anchor at the origin and belong to no single
    // target, so their activations land in the ledger's global row.
    injector.emplace(sim, net, *plan, master.fork(6), trace,
                     /*episode_id=*/-1,
                     want_ledger ? &out.ledger : nullptr);
    injector->arm(TimePoint::origin());
  }

  {
    const ScopedSpan drain_span(spans, "drain");
    sim.run(static_cast<std::uint64_t>(episodes.size() + 1) * 100000);
  }

  const ScopedSpan finalize_span(spans, "finalize");
  for (auto& ep : episodes) {
    ep->finalize();
    const auto& r = ep->result();
    out.levels.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
    if (r.alert_delivered) {
      ++out.delivered;
      if (!r.timely) ++out.untimely;
      out.latency_min.add((r.first_alert_sent - r.detection).to_minutes());
    }
    if (r.alerts_sent > 1) ++out.duplicates;
    if (config.check_invariants) {
      // Exact per-target I7 audit (ISSUE 7): the attribution ledger tracks
      // each target's own drops and retries, so a clean episode is audited
      // as clean even when another target's envelopes dropped. Faults stay
      // campaign-wide — clauses are episode-less (global row), so any
      // activation still excuses every overlapping episode; that is the
      // only remaining conservatism.
      EpisodeResult audited = r;
      const LedgerRow& row = out.ledger.row(ep->target_id());
      audited.telemetry.messages_dropped_loss =
          static_cast<std::uint64_t>(row.drops_loss);
      audited.telemetry.messages_dropped_dead =
          static_cast<std::uint64_t>(row.drops_dead);
      audited.telemetry.messages_dropped_link =
          static_cast<std::uint64_t>(row.drops_link);
      audited.telemetry.retries = static_cast<std::uint64_t>(row.retries);
      audited.telemetry.retries_exhausted =
          static_cast<std::uint64_t>(row.retries_exhausted);
      audited.telemetry.faults_injected = static_cast<std::uint64_t>(
          row.faults + out.ledger.global_row().faults);
      out.invariants.check_episode(ep->target_id(), audited, config.protocol);
    }
  }
  if (config.check_invariants) {
    out.invariants.check_simulator(/*episode_id=*/-1, sim.accounting());
  }
  out.contended = calendar.contended_reservations();
  out.queueing_delay_s = calendar.total_queueing_delay().to_seconds();

  if (want_metrics) {
    MetricsRegistry& m = out.metrics;
    m.add("campaign.replications", 1);
    m.add("campaign.signals", out.signals);
    m.add("alerts.delivered", out.delivered);
    m.add("alerts.untimely", out.untimely);
    m.add("alerts.duplicate_episodes", out.duplicates);
    m.add("compute.contended", out.contended);
    const NetworkStats& net_stats = net.stats();
    m.add("xlink.sent", static_cast<std::int64_t>(net_stats.sent));
    m.add("xlink.delivered", static_cast<std::int64_t>(net_stats.delivered));
    m.add("xlink.dropped_loss",
          static_cast<std::int64_t>(net_stats.dropped_loss));
    m.add("xlink.dropped_dead",
          static_cast<std::int64_t>(net_stats.dropped_dead_sender +
                                    net_stats.dropped_dead_receiver +
                                    net_stats.dropped_unregistered));
    if (config.protocol.reliable_links || plan != nullptr) {
      // Gated like sim.queue.*: the golden metrics files predate these.
      m.add("xlink.dropped_link",
            static_cast<std::int64_t>(net_stats.dropped_link));
      m.add("net.retry.attempts",
            static_cast<std::int64_t>(net_stats.retries));
      m.add("net.retry.exhausted",
            static_cast<std::int64_t>(net_stats.retries_exhausted));
      m.add("net.fault.injected",
            static_cast<std::int64_t>(
                injector ? injector->stats().activations : 0));
    }
    if (config.protocol.self_healing_links) {
      // Gated separately: the health estimator is opt-in, and the golden
      // metrics files (including reliable-mode ones) predate these keys.
      m.add("net.health.demoted",
            static_cast<std::int64_t>(net_stats.links_demoted));
      m.add("net.health.restored",
            static_cast<std::int64_t>(net_stats.links_restored));
      m.add("net.health.probes",
            static_cast<std::int64_t>(net_stats.link_probes));
      m.add("net.health.probations",
            static_cast<std::int64_t>(net_stats.link_probations));
      m.add("net.health.reroutes",
            static_cast<std::int64_t>(net_stats.reroutes));
    }
    m.add("sim.events", static_cast<std::int64_t>(sim.processed_count()));
    m.observe("sim.peak_pending",
              static_cast<double>(sim.peak_pending_count()));
    if (config.queue_metrics) {
      const QueueStats& qs = sim.queue_stats();
      m.add("sim.queue.tombstones_purged",
            static_cast<std::int64_t>(qs.tombstones_purged));
      m.observe("sim.queue.max_entries",
                static_cast<double>(qs.max_entries));
    }
    if (shared_cache != nullptr) {
      m.add("visibility.pass_queries",
            static_cast<std::int64_t>(shared_stats.pass_queries));
      m.add("visibility.pass_hits",
            static_cast<std::int64_t>(shared_stats.pass_hits));
    }
    m.observe("compute.queueing_delay_s", out.queueing_delay_s);
    for (auto& ep : episodes) {
      const auto& r = ep->result();
      if (r.alert_delivered) {
        m.observe("alerts.latency_min",
                  (r.first_alert_sent - r.detection).to_minutes());
      }
      if (r.detected) {
        m.observe("chain.length", static_cast<double>(r.chain_length));
      }
    }
  }
  return out;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  OAQ_REQUIRE(config.k > 0, "need at least one satellite");
  OAQ_REQUIRE(config.horizon > Duration::zero(), "horizon must be positive");
  OAQ_REQUIRE(config.signal_arrival_rate > Rate::zero(),
              "arrival rate must be positive");
  OAQ_REQUIRE(config.replications > 0, "need at least one replication");

  // One trace shard per replication (a replication's stream depends only
  // on its child seed, so the shard-order export is jobs-independent).
  if (config.trace != nullptr) config.trace->prepare(config.replications);
  const bool want_metrics = config.metrics != nullptr;
  const auto shard_trace = [&config](int shard) {
    return config.trace != nullptr ? config.trace->shard(shard) : nullptr;
  };

  // Span layout mirrors the trace: one arena per replication plus the
  // main arena for calling-thread work (seed/freeze, merge, root).
  if (config.spans != nullptr) config.spans->prepare(config.replications);
  SpanArena* main_spans =
      config.spans != nullptr ? config.spans->main_arena() : nullptr;
  const ScopedSpan root_span(main_spans, "run_campaign");
  const auto shard_spans = [&config](int shard) -> SpanArena* {
    return config.spans != nullptr ? config.spans->shard_arena(shard)
                                   : nullptr;
  };

  // Run-wide shared cache: the horizon window is seeded once on the
  // calling thread and frozen before any replication runs — every
  // replication then reads the same sweep lock-free.
  std::optional<SharedVisibilityCache> shared_cache;
  SeedFreezeHook seed_hook;
  int seed_executors = 0;
  if (config.constellation != nullptr) {
    VisibilityCache::Options vopt;
    vopt.window_quantum = campaign_visibility_quantum(config);
    shared_cache.emplace(*config.constellation, config.earth_rotation, vopt);
    // `vopt` dies with this block but the lambda runs later (inside
    // parallel_reduce), so capture it by value.
    seed_hook.seed = [&shared_cache, &config, vopt, &seed_executors,
                      main_spans] {
      const ScopedSpan span(main_spans, "visibility_seed");
      // Single-target campaigns seed serially (seed_windows degrades to
      // the plain loop); multi-target callers get the pool fan-out.
      seed_executors = shared_cache->seed_windows(
          {config.target}, Duration::zero(), vopt.window_quantum,
          config.jobs);
    };
    seed_hook.freeze = [&shared_cache, main_spans] {
      const ScopedSpan span(main_spans, "visibility_freeze");
      shared_cache->freeze();
    };
  }
  const SharedVisibilityCache* shared_ptr =
      shared_cache ? &*shared_cache : nullptr;

  CampaignAccum total;
  if (config.replications == 1) {
    using Clock = std::chrono::steady_clock;
    const auto t_start = Clock::now();
    if (shared_cache) {
      seed_hook.seed();
      seed_hook.freeze();
    }
    total =
        run_single_campaign(config, Rng(config.seed), shard_trace(0),
                            want_metrics, shared_ptr, shard_spans(0));
    if (config.profile != nullptr) {
      // No fan-out: a one-shard profile keeps the BENCH_JSON shape.
      config.profile->jobs_resolved = 1;
      config.profile->shards_used = 1;
      config.profile->merge_s = 0.0;
      config.profile->shards.assign(1, {});
      config.profile->shards[0].run_s = config.profile->total_s =
          std::chrono::duration<double>(Clock::now() - t_start).count();
    }
  } else {
    // One shard per replication, merged in replication order, so the
    // aggregate is bit-identical for any jobs value. Child seeds are
    // forked from a dedicated stream so they cannot collide with the
    // per-process streams a single run forks from Rng(seed) itself.
    const Rng replication_seeds = Rng(config.seed).fork(5);
    total = parallel_reduce<CampaignAccum>(
        config.replications, config.replications, config.jobs,
        [&](std::int64_t begin, std::int64_t end, int shard) {
          CampaignAccum acc;
          for (std::int64_t r = begin; r < end; ++r) {
            acc.merge(run_single_campaign(
                config, replication_seeds.fork(static_cast<std::uint64_t>(r)),
                shard_trace(shard), want_metrics, shared_ptr,
                shard_spans(shard)));
          }
          return acc;
        },
        [main_spans](CampaignAccum& into, CampaignAccum&& from) {
          // Calling thread in both the inline and pooled paths — the span
          // count (replications - 1) is jobs-independent.
          const ScopedSpan span(main_spans, "merge");
          into.merge(from);
        },
        config.profile, shared_cache ? &seed_hook : nullptr);
  }
  if (shared_cache && want_metrics) {
    // Global cache size, once — not per replication.
    total.metrics.add(
        "visibility.cache_entries",
        static_cast<std::int64_t>(shared_cache->frozen_entries() +
                                  shared_cache->overflow_entries()));
    if (seed_executors > 1) {
      // Only when the seed phase actually fanned out — single-target
      // campaigns (and the golden metrics files) see no new key.
      total.metrics.add("visibility.seed_parallel", seed_executors);
    }
  }
  if (want_metrics && config.check_invariants) {
    total.metrics.add(
        "invariant.violations",
        static_cast<std::int64_t>(total.invariants.violations()));
  }
  if (want_metrics) *config.metrics = std::move(total.metrics);
  if (config.ledger != nullptr) *config.ledger = std::move(total.ledger);

  CampaignResult out;
  out.signals = total.signals;
  out.levels = std::move(total.levels);
  out.delivered = total.delivered;
  out.untimely = total.untimely;
  out.duplicates = total.duplicates;
  out.replications = config.replications;
  out.latency_min = total.latency_min;
  out.mean_latency_min = total.latency_min.mean();
  out.contended_computations = total.contended;
  out.mean_queueing_delay_s =
      total.contended > 0
          ? total.queueing_delay_s / static_cast<double>(total.contended)
          : 0.0;
  out.invariant_violations =
      static_cast<std::int64_t>(total.invariants.violations());
  out.invariant_samples = total.invariants.samples();
  return out;
}

}  // namespace oaq
