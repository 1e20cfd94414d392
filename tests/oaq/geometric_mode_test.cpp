// Geometric Monte-Carlo / campaign mode (ISSUE 3): episodes against real
// constellation geometry through per-shard VisibilityCaches. The contract
// under test: the cache changes wall-clock cost only — results stay
// bit-identical for any worker count, and cached schedules agree with a
// fresh cache answering the same windows.
#include <gtest/gtest.h>

#include <sstream>

#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "qos_oracle.hpp"

namespace oaq {
namespace {

Constellation small_polar_plane() {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  return Constellation(d);
}

QosSimulationConfig geometric_config(const Constellation& c) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = 24;
  cfg.seed = 19;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

TEST(GeometricMonteCarlo, CachedScheduleMatchesFreshCache) {
  const Constellation c = small_polar_plane();
  VisibilityCache cache(c);
  const GeometricSchedule cached(cache, GeoPoint{0.0, 0.0});
  VisibilityCache reference(c);
  const auto expect = reference.passes_window(
      GeoPoint{0.0, 0.0}, Duration::minutes(5), Duration::minutes(85));
  const auto got = cached.passes(Duration::minutes(5), Duration::minutes(85));
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].satellite, expect[i].satellite);
    EXPECT_EQ(got[i].start.to_seconds(), expect[i].start.to_seconds());
    EXPECT_EQ(got[i].end.to_seconds(), expect[i].end.to_seconds());
  }
  EXPECT_GT(cache.stats().pass_queries, 0u);
}

TEST(GeometricMonteCarlo, ResultsAreBitIdenticalAcrossJobs) {
  const Constellation c = small_polar_plane();
  SimulatedQos base;
  std::string base_trace;
  std::string base_metrics;
  for (const int jobs : {1, 2, 4, 8}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.jobs = jobs;
    TraceCollector trace;
    cfg.trace = &trace;
    MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const SimulatedQos r = simulate_qos(cfg);
    std::ostringstream os;
    trace.write_jsonl(os);
    std::ostringstream ms;
    metrics.write_json(ms);
    if (jobs == 1) {
      base = r;
      base_trace = os.str();
      base_metrics = ms.str();
      EXPECT_EQ(r.episodes, 24);
      continue;
    }
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.level_pmf.probability(y), base.level_pmf.probability(y))
          << "level " << y << " jobs " << jobs;
    }
    EXPECT_EQ(r.duplicates, base.duplicates);
    EXPECT_EQ(r.unresolved, base.unresolved);
    EXPECT_EQ(r.mean_chain_length, base.mean_chain_length);
    EXPECT_EQ(os.str(), base_trace) << "jobs " << jobs;
    // The full serialized registry — counters, gauges, and stat folds,
    // including the shared cache's hit accounting — must be byte-identical
    // for any worker count, not just statistically equal.
    EXPECT_EQ(ms.str(), base_metrics) << "jobs " << jobs;
  }
}

TEST(GeometricMonteCarlo, SharedCacheMatchesPrivateCachesExactly) {
  // The shared frozen cache is a wall-clock optimization only: cached pass
  // lists are pure functions of the query window, so the scalar oracle
  // (one private VisibilityCache per shard) must reproduce results and
  // traces byte-for-byte.
  const Constellation c = small_polar_plane();
  SimulatedQos base;
  std::string base_trace;
  for (const bool shared : {true, false}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.jobs = 4;
    TraceCollector trace;
    cfg.trace = &trace;
    const SimulatedQos r =
        shared ? simulate_qos(cfg) : simulate_qos_oracle(cfg);
    std::ostringstream os;
    trace.write_jsonl(os);
    if (shared) {
      base = r;
      base_trace = os.str();
      continue;
    }
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.level_pmf.probability(y), base.level_pmf.probability(y))
          << "level " << y;
    }
    EXPECT_EQ(r.duplicates, base.duplicates);
    EXPECT_EQ(r.unresolved, base.unresolved);
    EXPECT_EQ(r.untimely, base.untimely);
    EXPECT_EQ(r.mean_chain_length, base.mean_chain_length);
    EXPECT_EQ(r.max_chain_length, base.max_chain_length);
    EXPECT_EQ(os.str(), base_trace);
  }
}

TEST(GeometricMonteCarlo, ExportsCacheHitMetrics) {
  const Constellation c = small_polar_plane();
  QosSimulationConfig cfg = geometric_config(c);
  // More episodes than shards, so shards hold several episodes and the
  // shard-wide quantum turns all but the first query into hits.
  cfg.episodes = 130;
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.contains("visibility.pass_queries"));
  ASSERT_TRUE(counters.contains("visibility.pass_hits"));
  ASSERT_TRUE(counters.contains("visibility.cache_entries"));
  const auto queries = counters.at("visibility.pass_queries");
  const auto hits = counters.at("visibility.pass_hits");
  EXPECT_GT(queries, 0);
  EXPECT_GE(queries, hits);
  // Quantized windows make most of a shard's episodes share entries.
  EXPECT_GT(hits, 0);
}

TEST(GeometricCampaign, RunsOnRealGeometryAndReportsCacheStats) {
  const Constellation c = small_polar_plane();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 10;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(4);
  cfg.seed = 5;
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const CampaignResult r = run_campaign(cfg);
  EXPECT_GT(r.signals, 0);
  EXPECT_GT(r.delivered, 0);
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.contains("visibility.pass_queries"));
  EXPECT_GT(counters.at("visibility.pass_hits"), 0);
}

TEST(GeometricCampaign, ReplicationsAreBitIdenticalAcrossJobs) {
  const Constellation c = small_polar_plane();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 10;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(3);
  cfg.seed = 9;
  cfg.replications = 3;
  CampaignResult base;
  for (const int jobs : {1, 3, 8}) {
    cfg.jobs = jobs;
    const CampaignResult r = run_campaign(cfg);
    if (jobs == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.signals, base.signals);
    EXPECT_EQ(r.delivered, base.delivered);
    EXPECT_EQ(r.mean_latency_min, base.mean_latency_min);
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.levels.probability(y), base.levels.probability(y));
    }
  }
}

}  // namespace
}  // namespace oaq
