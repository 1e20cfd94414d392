// Sharded-simulator campaigns at constellation scale (ISSUE 8 tentpole):
// the pooled per-shard DES context must be byte-identical to the scalar
// per-episode oracle (simulate_qos_oracle) — results, traces, and metrics
// less the cache-dependent visibility.* keys — for any job count, on the
// paper's reference preset, a published mega-constellation design point,
// and a multi-shell composition.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/plan.hpp"
#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "orbit/constellation_builder.hpp"
#include "qos_oracle.hpp"

namespace oaq {
namespace {

QosSimulationConfig geometric_config(const Constellation& c) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  // More episodes than shards, so every shard drains several episodes
  // through one pooled context — the reset path is what's under test.
  cfg.episodes = 130;
  cfg.seed = 19;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

struct RunOutput {
  SimulatedQos qos;
  std::string trace;
  std::string metrics;
};

/// One run through simulate_qos or, with `oracle`, the scalar oracle.
/// Oracle comparisons pass `drop_visibility`: the visibility.* keys' hit
/// accounting depends on the cache (ExportsCacheHitMetrics and
/// WarmSharedCacheHitAccountingPreserved pin them).
RunOutput run(QosSimulationConfig cfg, bool oracle = false,
              bool drop_visibility = false) {
  TraceCollector trace;
  MetricsRegistry metrics;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  RunOutput out;
  out.qos = oracle ? simulate_qos_oracle(cfg) : simulate_qos(cfg);
  std::ostringstream os;
  trace.write_jsonl(os);
  out.trace = os.str();
  out.metrics = metrics_json(metrics, drop_visibility);
  return out;
}

void expect_equal(const RunOutput& got, const RunOutput& want,
                  const std::string& label) {
  for (int y = 0; y <= 3; ++y) {
    EXPECT_EQ(got.qos.level_pmf.probability(y),
              want.qos.level_pmf.probability(y))
        << label << " level " << y;
  }
  EXPECT_EQ(got.qos.duplicates, want.qos.duplicates) << label;
  EXPECT_EQ(got.qos.unresolved, want.qos.unresolved) << label;
  EXPECT_EQ(got.qos.untimely, want.qos.untimely) << label;
  EXPECT_EQ(got.qos.mean_chain_length, want.qos.mean_chain_length) << label;
  EXPECT_EQ(got.qos.max_chain_length, want.qos.max_chain_length) << label;
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_EQ(got.metrics, want.metrics) << label;
}

Constellation two_shell_constellation() {
  WalkerShell low;
  low.total_sats = 10;
  low.planes = 1;
  low.phasing = 0;
  low.altitude_km = 550.0;
  low.inclination_deg = 90.0;
  WalkerShell high = low;
  high.total_sats = 8;
  high.planes = 2;
  high.phasing = 1;
  high.altitude_km = 1200.0;
  high.footprint_deg = 25.0;
  return ConstellationBuilder().add_shell(low).add_shell(high).build();
}

TEST(PooledEpisodes, MatchesScalarOracleByteForByte) {
  // The pooled path is a wall-clock optimization only: the scalar
  // per-episode oracle must reproduce results, traces, and metrics
  // byte-for-byte on the paper's reference design.
  const Constellation c = ConstellationBuilder::preset("reference").build();
  QosSimulationConfig cfg = geometric_config(c);
  cfg.jobs = 4;
  const RunOutput pooled = run(cfg, /*oracle=*/false, /*drop_visibility=*/true);
  const RunOutput scalar = run(cfg, /*oracle=*/true, /*drop_visibility=*/true);
  EXPECT_GT(pooled.qos.episodes, 0);
  expect_equal(pooled, scalar, "pooled vs scalar");
}

TEST(PooledEpisodes, MatchesScalarOracleUnderFaultPlan) {
  // The injector must arm at the episode's jittered start (the scalar
  // engine's signal-start argument), not the run-wide anchor — a plan
  // with windowed clauses pins that alignment.
  WalkerShell shell;
  shell.total_sats = 10;
  shell.planes = 1;
  shell.phasing = 0;
  shell.inclination_deg = 90.0;
  const Constellation c = ConstellationBuilder().add_shell(shell).build();
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(12)));
  plan.add(FaultPlan::delay_spike(2.0, Duration::minutes(0),
                                  Duration::minutes(20)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(2),
                                 Duration::minutes(9)));
  QosSimulationConfig cfg = geometric_config(c);
  cfg.fault_plan = &plan;
  cfg.check_invariants = true;
  cfg.jobs = 4;
  const RunOutput pooled = run(cfg, /*oracle=*/false, /*drop_visibility=*/true);
  const RunOutput scalar = run(cfg, /*oracle=*/true, /*drop_visibility=*/true);
  expect_equal(pooled, scalar, "pooled vs scalar under plan");
  EXPECT_EQ(pooled.qos.invariant_violations, 0);
}

TEST(PooledEpisodes, ResultsBitIdenticalAcrossJobsOnPresets) {
  // The acceptance pin: simulate trace+metrics bytes identical at jobs
  // 1/4/8 for the 7×14+2 reference and the 6×11 Iridium-NEXT presets.
  for (const char* preset : {"reference", "iridium-next"}) {
    const Constellation c = ConstellationBuilder::preset(preset).build();
    RunOutput base;
    for (const int jobs : {1, 4, 8}) {
      QosSimulationConfig cfg = geometric_config(c);
      cfg.jobs = jobs;
      const RunOutput r = run(cfg);
      if (jobs == 1) {
        base = r;
        EXPECT_EQ(r.qos.episodes, 130) << preset;
        continue;
      }
      expect_equal(r, base,
                   std::string(preset) + " jobs " + std::to_string(jobs));
    }
  }
}

TEST(PooledEpisodes, MultiShellResultsBitIdenticalAcrossJobs) {
  // Shell-aware hot path: per-plane footprints in the visibility sweep
  // and max_period phase jitter, under the pooled runner at any jobs.
  const Constellation c = two_shell_constellation();
  RunOutput base;
  for (const int jobs : {1, 4, 8}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.jobs = jobs;
    const RunOutput r = run(cfg);
    if (jobs == 1) {
      base = r;
      continue;
    }
    expect_equal(r, base, "two-shell jobs " + std::to_string(jobs));
  }
}

TEST(PooledEpisodes, WarmSharedCacheHitAccountingPreserved) {
  // The pooled context must not change the visibility query pattern: with
  // the run-covering quantum, all but each shard's first query hit.
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  QosSimulationConfig cfg = geometric_config(c);
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.contains("visibility.pass_queries"));
  ASSERT_TRUE(counters.contains("visibility.pass_hits"));
  EXPECT_GT(counters.at("visibility.pass_queries"), 0);
  EXPECT_GT(counters.at("visibility.pass_hits"), 0);
  EXPECT_GE(counters.at("visibility.pass_queries"),
            counters.at("visibility.pass_hits"));
}

TEST(GeometricCampaign, PresetReplicationsBitIdenticalAcrossJobs) {
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 11;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(3);
  cfg.seed = 9;
  cfg.replications = 3;
  CampaignResult base;
  for (const int jobs : {1, 4, 8}) {
    cfg.jobs = jobs;
    const CampaignResult r = run_campaign(cfg);
    if (jobs == 1) {
      base = r;
      EXPECT_GT(r.signals, 0);
      continue;
    }
    EXPECT_EQ(r.signals, base.signals);
    EXPECT_EQ(r.delivered, base.delivered);
    EXPECT_EQ(r.untimely, base.untimely);
    EXPECT_EQ(r.mean_latency_min, base.mean_latency_min);
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.levels.probability(y), base.levels.probability(y));
    }
  }
}

}  // namespace
}  // namespace oaq
