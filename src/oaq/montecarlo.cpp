#include "oaq/montecarlo.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "oaq/batch_episode.hpp"
#include "oaq/montecarlo_internal.hpp"
#include "oaq/pooled_episode.hpp"
#include "orbit/shared_visibility_cache.hpp"

namespace oaq {
namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  OAQ_REQUIRE(!__builtin_add_overflow(a, b, &out),
              "episode statistics counter overflow");
  return out;
}

/// Record one episode's outcome into a shard-local registry. Every value
/// derives from the episode result / telemetry (simulation time), so the
/// merged registry is deterministic for any worker count. `queue_metrics`
/// additionally exports the DES ready-queue telemetry (off by default: the
/// golden metrics files predate the sim.queue.* keys).
void record_episode_metrics(MetricsRegistry& m, const EpisodeResult& r,
                            bool queue_metrics, bool fault_metrics,
                            bool health_metrics) {
  m.add("episodes", 1);
  if (r.detected) m.add("episodes.detected", 1);
  if (r.alert_delivered) m.add("alerts.delivered", 1);
  if (r.alert_delivered && r.timely) m.add("alerts.timely", 1);
  if (r.alert_delivered && !r.timely) m.add("alerts.untimely", 1);
  if (r.alerts_sent > 1) m.add("alerts.duplicate_episodes", 1);
  if (!r.all_participants_resolved) m.add("episodes.unresolved", 1);
  m.add("alerts.sent", r.alerts_sent);
  m.add("coordination.requests", r.coordination_requests);
  m.add("xlink.sent", static_cast<std::int64_t>(r.telemetry.messages_sent));
  m.add("xlink.delivered",
        static_cast<std::int64_t>(r.telemetry.messages_delivered));
  m.add("xlink.dropped_loss",
        static_cast<std::int64_t>(r.telemetry.messages_dropped_loss));
  m.add("xlink.dropped_dead",
        static_cast<std::int64_t>(r.telemetry.messages_dropped_dead));
  m.add("sim.events", static_cast<std::int64_t>(r.telemetry.sim_events));
  m.observe("sim.peak_pending",
            static_cast<double>(r.telemetry.sim_peak_pending));
  if (queue_metrics) {
    m.add("sim.queue.tombstones_purged",
          static_cast<std::int64_t>(r.telemetry.sim_tombstones_purged));
    m.observe("sim.queue.max_entries",
              static_cast<double>(r.telemetry.sim_max_entries));
  }
  if (fault_metrics) {
    // Gated like sim.queue.*: only fault-plan / reliable-link runs emit
    // these, so the golden metrics files stay byte-identical.
    m.add("xlink.dropped_link",
          static_cast<std::int64_t>(r.telemetry.messages_dropped_link));
    m.add("net.retry.attempts",
          static_cast<std::int64_t>(r.telemetry.retries));
    m.add("net.retry.exhausted",
          static_cast<std::int64_t>(r.telemetry.retries_exhausted));
    m.add("net.fault.injected",
          static_cast<std::int64_t>(r.telemetry.faults_injected));
  }
  if (health_metrics) {
    // Gated on self-healing links (opt-in): the pre-ISSUE-10 golden
    // metrics files — including reliable-mode ones — predate these keys.
    m.add("net.health.demoted",
          static_cast<std::int64_t>(r.telemetry.links_demoted));
    m.add("net.health.restored",
          static_cast<std::int64_t>(r.telemetry.links_restored));
    m.add("net.health.probes",
          static_cast<std::int64_t>(r.telemetry.link_probes));
    m.add("net.health.probations",
          static_cast<std::int64_t>(r.telemetry.link_probations));
    m.add("episodes.reroutes", static_cast<std::int64_t>(r.reroutes));
    m.add("net.lifecycle.deaths",
          static_cast<std::int64_t>(r.telemetry.lifecycle_deaths));
    m.add("net.lifecycle.spares",
          static_cast<std::int64_t>(r.telemetry.lifecycle_spares));
  }
  if (r.detected) {
    m.observe("chain.length", static_cast<double>(r.chain_length));
    m.observe("alerts.reported_error_km", r.reported_error_km);
  }
}

}  // namespace

namespace detail {

int qos_shard_count(const QosSimulationConfig& config) {
  return static_cast<int>(
      std::min<std::int64_t>(kQosEpisodeShards, config.episodes));
}

std::shared_ptr<const DurationDistribution> qos_duration_law(
    const QosSimulationConfig& config) {
  return config.duration_distribution
             ? config.duration_distribution
             : std::make_shared<ExponentialDuration>(config.mu);
}

Duration qos_phase_period(const QosSimulationConfig& config) {
  return config.constellation != nullptr ? config.constellation->max_period()
                                         : config.geometry.tr(config.k);
}

Duration qos_visibility_quantum(const QosSimulationConfig& config) {
  return qos_signal_start().since_origin() +
         config.constellation->max_period() + config.protocol.tau +
         Duration::hours(2);
}

EpisodeDraw draw_episode(const Rng& episode_rng, std::int64_t e,
                         Duration period, const DurationDistribution& law) {
  const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
  Rng phase_rng = ep.fork(1);
  Rng duration_rng = ep.fork(2);
  const Duration phase = phase_rng.uniform(Duration::zero(), period);
  return {phase, law.sample(duration_rng), ep.fork(3)};
}

void EpisodeAccum::merge(EpisodeAccum&& other) {
  level_pmf.merge(other.level_pmf);
  duplicates = checked_add(duplicates, other.duplicates);
  unresolved = checked_add(unresolved, other.unresolved);
  untimely = checked_add(untimely, other.untimely);
  detected = checked_add(detected, other.detected);
  chain_sum = checked_add(chain_sum, other.chain_sum);
  max_chain_length = std::max(max_chain_length, other.max_chain_length);
  metrics.merge(other.metrics);
  invariants.merge(other.invariants);
  ledger.merge(other.ledger);
}

EpisodeFold::EpisodeFold(const QosSimulationConfig& config)
    : want_metrics_(config.metrics != nullptr),
      queue_metrics_(config.queue_metrics),
      fault_metrics_(config.fault_plan != nullptr ||
                     config.protocol.reliable_links ||
                     config.protocol.self_healing_links),
      health_metrics_(config.protocol.self_healing_links) {}

void EpisodeFold::operator()(EpisodeAccum& acc, const EpisodeResult& r) const {
  acc.level_pmf.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
  if (r.alerts_sent > 1) ++acc.duplicates;
  if (!r.all_participants_resolved) ++acc.unresolved;
  if (r.alert_delivered && !r.timely) ++acc.untimely;
  if (r.detected) {
    ++acc.detected;
    acc.chain_sum = checked_add(acc.chain_sum, r.chain_length);
    acc.max_chain_length = std::max(acc.max_chain_length, r.chain_length);
  }
  if (want_metrics_) {
    record_episode_metrics(acc.metrics, r, queue_metrics_, fault_metrics_,
                           health_metrics_);
  }
}

SimulatedQos finish_qos(const QosSimulationConfig& config,
                        EpisodeAccum&& total) {
  const bool want_metrics = config.metrics != nullptr;
  if (want_metrics && config.check_invariants) {
    // Added once after the reduce, like visibility.cache_entries.
    total.metrics.add(
        "invariant.violations",
        static_cast<std::int64_t>(total.invariants.violations()));
  }
  if (want_metrics) *config.metrics = std::move(total.metrics);
  if (config.ledger != nullptr) {
    // Quiet top episode ids leave shard ledgers short; size the merged
    // ledger to the run so row(e) is valid for every episode.
    total.ledger.reserve(static_cast<std::size_t>(config.episodes));
    *config.ledger = std::move(total.ledger);
  }

  SimulatedQos out;
  out.episodes = config.episodes;
  out.level_pmf = std::move(total.level_pmf);
  out.duplicates = total.duplicates;
  out.unresolved = total.unresolved;
  out.untimely = total.untimely;
  out.max_chain_length = total.max_chain_length;
  out.invariant_violations =
      static_cast<std::int64_t>(total.invariants.violations());
  out.invariant_samples = total.invariants.samples();
  out.mean_chain_length =
      total.detected > 0
          ? static_cast<double>(total.chain_sum) /
                static_cast<double>(total.detected)
          : 0.0;
  return out;
}

}  // namespace detail

SimulatedQos simulate_qos(const QosSimulationConfig& config) {
  OAQ_REQUIRE(config.k > 0, "need at least one satellite");
  OAQ_REQUIRE(config.episodes > 0, "need at least one episode");
  OAQ_REQUIRE(config.mu > Rate::zero(), "termination rate must be positive");

  const Rng episode_rng = Rng(config.seed).fork(3);
  const std::shared_ptr<const DurationDistribution> duration_law =
      detail::qos_duration_law(config);
  const TimePoint signal_start = detail::qos_signal_start();

  // Tracing: one ring buffer per shard, sized up front. A shard's stream
  // depends only on its episode indices (episodes within a shard run
  // sequentially), so the shard-order JSONL export is bit-identical for
  // any jobs value.
  const int n_shards = detail::qos_shard_count(config);
  if (config.trace != nullptr) config.trace->prepare(n_shards);
  const bool want_metrics = config.metrics != nullptr;

  // Span profiling mirrors the trace layout: one arena per shard plus the
  // main arena for the calling thread's work (seed/freeze, merge). The
  // root span brackets the whole experiment.
  if (config.spans != nullptr) config.spans->prepare(n_shards);
  SpanArena* main_spans =
      config.spans != nullptr ? config.spans->main_arena() : nullptr;
  const ScopedSpan root_span(main_spans, "simulate_qos");

  // Every random stream an episode consumes (phase, duration, protocol
  // noise) derives from episode_rng.fork(e): episode e's outcome does not
  // depend on which shard — or thread — runs it, making the reduction
  // bit-identical for any jobs value. In geometric mode the schedule reads
  // the run-wide shared visibility cache and the phase jitters the
  // episode's start time instead of the pass pattern.
  const bool geometric = config.constellation != nullptr;
  const detail::EpisodeFold fold(config);

  // Geometric mode computes the one covering sweep ONCE on the calling
  // thread (seed), freezes it, and every shard then reads it lock-free
  // with shard-local hit stats — cached values are pure functions of the
  // query, so the results are bit-identical at any jobs. The satellite
  // set every shard's arena registers is computed here too (the shards'
  // dense network tables are still first-touched on their own threads).
  std::optional<SharedVisibilityCache> shared_cache;
  std::vector<SatelliteId> satellites;
  SeedFreezeHook seed_hook;
  int seed_executors = 0;
  if (geometric) {
    VisibilityCache::Options vopt;
    vopt.window_quantum = detail::qos_visibility_quantum(config);
    shared_cache.emplace(*config.constellation, config.earth_rotation, vopt);
    satellites = config.constellation->active_satellites();
    seed_hook.seed = [&shared_cache, &config, quantum = vopt.window_quantum,
                      &seed_executors, main_spans] {
      const ScopedSpan span(main_spans, "visibility_seed");
      // Single-target runs seed serially (seed_windows degrades to the
      // plain loop); the fan-out pays off for multi-target workloads.
      seed_executors = shared_cache->seed_windows(
          {config.target}, Duration::zero(), quantum, config.jobs);
    };
    seed_hook.freeze = [&shared_cache, main_spans] {
      const ScopedSpan span(main_spans, "visibility_freeze");
      shared_cache->freeze();
    };
  }

  detail::EpisodeAccum total = parallel_reduce<detail::EpisodeAccum>(
      config.episodes, n_shards, config.jobs,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        detail::EpisodeAccum acc;
        ShardTraceBuffer* trace =
            config.trace != nullptr ? config.trace->shard(shard) : nullptr;
        SpanArena* spans = config.spans != nullptr
                               ? config.spans->shard_arena(shard)
                               : nullptr;
        InvariantChecker* invariants =
            config.check_invariants ? &acc.invariants : nullptr;
        EpisodeLedger* ledger =
            config.ledger != nullptr ? &acc.ledger : nullptr;
        const ScopedSpan shard_span(spans, "shard");
        if (!geometric) {
          // SoA batch path: closed-form escape retirement, armed lanes
          // drained through the shard's arena, results delivered in
          // episode order.
          BatchEpisodeEngine engine(config.geometry, config.k,
                                    config.protocol,
                                    config.opportunity_adaptive,
                                    *duration_law, episode_rng, signal_start,
                                    config.fault_plan);
          engine.run(begin, end, trace, invariants,
                     [&](std::int64_t, const EpisodeResult& r) {
                       fold(acc, r);
                     },
                     spans, ledger);
          if (want_metrics && config.batch_metrics) {
            const BatchEpisodeStats& bs = engine.stats();
            acc.metrics.add("sim.batch.batches",
                            static_cast<std::int64_t>(bs.batches));
            acc.metrics.add("sim.batch.episodes",
                            static_cast<std::int64_t>(bs.episodes));
            acc.metrics.add("sim.batch.escaped",
                            static_cast<std::int64_t>(bs.escaped));
            acc.metrics.add("sim.batch.des_lanes",
                            static_cast<std::int64_t>(bs.des_lanes));
            for (std::size_t i = 0; i < bs.occupancy.size(); ++i) {
              acc.metrics.add(
                  "sim.batch.occupancy." + std::to_string(i),
                  static_cast<std::int64_t>(bs.occupancy[i]));
            }
          }
          return acc;
        }
        VisibilityCacheStats shared_stats;
        const GeometricSchedule schedule(*shared_cache, config.target,
                                         &shared_stats);
        // One "episodes" span per shard, items = episode count: per-episode
        // spans would cost two clock reads each (the span_overhead gate).
        {
          const ScopedSpan episodes_span(spans, "episodes");
          if (spans != nullptr) spans->add_items(end - begin);
          PooledEpisodeRunner runner(schedule, satellites, config.protocol,
                                     config.opportunity_adaptive,
                                     config.fault_plan);
          const Duration period = detail::qos_phase_period(config);
          for (std::int64_t e = begin; e < end; ++e) {
            const detail::EpisodeDraw d =
                detail::draw_episode(episode_rng, e, period, *duration_law);
            fold(acc, runner.run_episode(e, d.protocol,
                                         signal_start + d.phase, d.duration,
                                         trace, invariants, ledger));
          }
        }
        if (want_metrics) {
          acc.metrics.add("visibility.pass_queries",
                          static_cast<std::int64_t>(shared_stats.pass_queries));
          acc.metrics.add("visibility.pass_hits",
                          static_cast<std::int64_t>(shared_stats.pass_hits));
        }
        return acc;
      },
      [main_spans](detail::EpisodeAccum& into, detail::EpisodeAccum&& from) {
        // Runs on the calling thread in both the inline and pooled paths,
        // exactly n_shards - 1 times — the span count is jobs-independent.
        const ScopedSpan span(main_spans, "merge");
        into.merge(std::move(from));
      },
      config.profile, geometric ? &seed_hook : nullptr);

  if (geometric && want_metrics) {
    // Global cache size, added once after the reduce (a per-shard export
    // would multiply the shared count by the shard count).
    total.metrics.add(
        "visibility.cache_entries",
        static_cast<std::int64_t>(shared_cache->frozen_entries() +
                                  shared_cache->overflow_entries()));
    if (seed_executors > 1) {
      // Emitted only when the seed phase actually fanned out, so
      // single-target runs — and the golden metrics files — see no new key.
      total.metrics.add("visibility.seed_parallel", seed_executors);
    }
  }
  return detail::finish_qos(config, std::move(total));
}

}  // namespace oaq
