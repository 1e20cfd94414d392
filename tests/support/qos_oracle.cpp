#include "qos_oracle.hpp"

#include <optional>
#include <regex>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "oaq/montecarlo_internal.hpp"
#include "orbit/visibility_cache.hpp"

namespace oaq {

namespace {

EpisodeResult run_oracle_episode(const QosSimulationConfig& config,
                                 const DurationDistribution& law,
                                 const CoverageSchedule* schedule,
                                 std::int64_t e, ShardTraceBuffer* trace,
                                 const EpisodeFaultHooks* hooks) {
  const Rng episode_rng = Rng(config.seed).fork(3);
  const detail::EpisodeDraw d = detail::draw_episode(
      episode_rng, e, detail::qos_phase_period(config), law);
  Rng protocol = d.protocol;
  const TimePoint signal_start = detail::qos_signal_start();
  if (config.constellation != nullptr) {
    // Geometric mode jitters the start over the shared pass pattern.
    const EpisodeEngine engine(*schedule, config.protocol,
                               config.opportunity_adaptive);
    return engine.run(signal_start + d.phase, d.duration, protocol,
                      /*faults=*/{}, /*known_failed=*/{}, trace,
                      static_cast<int>(e), hooks);
  }
  // Analytic mode randomizes the pass pattern's phase instead.
  const AnalyticSchedule analytic(config.geometry, config.k, d.phase);
  const EpisodeEngine engine(analytic, config.protocol,
                             config.opportunity_adaptive);
  return engine.run(signal_start, d.duration, protocol, /*faults=*/{},
                    /*known_failed=*/{}, trace, static_cast<int>(e), hooks);
}

}  // namespace

EpisodeResult oracle_episode(const QosSimulationConfig& config,
                             const CoverageSchedule* schedule, std::int64_t e,
                             ShardTraceBuffer* trace,
                             const EpisodeFaultHooks* hooks) {
  return run_oracle_episode(config, *detail::qos_duration_law(config),
                            schedule, e, trace, hooks);
}

SimulatedQos simulate_qos_oracle(const QosSimulationConfig& config) {
  OAQ_REQUIRE(config.k > 0, "need at least one satellite");
  OAQ_REQUIRE(config.episodes > 0, "need at least one episode");
  OAQ_REQUIRE(config.mu > Rate::zero(), "termination rate must be positive");

  const int n_shards = detail::qos_shard_count(config);
  if (config.trace != nullptr) config.trace->prepare(n_shards);
  if (config.spans != nullptr) config.spans->prepare(n_shards);
  SpanArena* main_spans =
      config.spans != nullptr ? config.spans->main_arena() : nullptr;
  const ScopedSpan root_span(main_spans, "simulate_qos");
  const detail::EpisodeFold fold(config);
  const std::shared_ptr<const DurationDistribution> law =
      detail::qos_duration_law(config);

  detail::EpisodeAccum total = parallel_reduce<detail::EpisodeAccum>(
      config.episodes, n_shards, /*jobs=*/1,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        detail::EpisodeAccum acc;
        ShardTraceBuffer* trace =
            config.trace != nullptr ? config.trace->shard(shard) : nullptr;
        SpanArena* spans = config.spans != nullptr
                               ? config.spans->shard_arena(shard)
                               : nullptr;
        const ScopedSpan shard_span(spans, "shard");
        std::optional<VisibilityCache> cache;
        std::optional<GeometricSchedule> schedule;
        if (config.constellation != nullptr) {
          VisibilityCache::Options vopt;
          vopt.window_quantum = detail::qos_visibility_quantum(config);
          cache.emplace(*config.constellation, config.earth_rotation, vopt);
          schedule.emplace(*cache, config.target);
        }
        EpisodeFaultHooks hooks;
        hooks.plan = config.fault_plan;
        hooks.invariants = config.check_invariants ? &acc.invariants : nullptr;
        hooks.ledger = config.ledger != nullptr ? &acc.ledger : nullptr;
        const ScopedSpan episodes_span(spans, "episodes");
        if (spans != nullptr) spans->add_items(end - begin);
        for (std::int64_t e = begin; e < end; ++e) {
          fold(acc, run_oracle_episode(config, *law,
                                       schedule ? &*schedule : nullptr, e,
                                       trace, &hooks));
        }
        return acc;
      },
      [main_spans](detail::EpisodeAccum& into, detail::EpisodeAccum&& from) {
        const ScopedSpan span(main_spans, "merge");
        into.merge(std::move(from));
      });
  return detail::finish_qos(config, std::move(total));
}

std::string metrics_json(const MetricsRegistry& metrics,
                         bool drop_visibility) {
  std::ostringstream os;
  metrics.write_json(os);
  std::string json = os.str();
  if (!drop_visibility) return json;
  // Every visibility.* entry is an integer counter.
  static const std::regex kVisibility(
      R"("visibility\.[A-Za-z0-9_.]+":-?[0-9]+,?)");
  json = std::regex_replace(json, kVisibility, "");
  return std::regex_replace(json, std::regex(",\\}"), "}");
}

}  // namespace oaq
