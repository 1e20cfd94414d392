// Golden-file equivalence with the seed DES kernel (ISSUE 3).
//
// tests/data/golden_* were captured from the pre-pooling kernel with the
// exact oaqctl invocations documented in tests/data/README.md. The pooled
// kernel, flat network dispatch, and any future hot-path change must
// reproduce those bytes exactly — trace JSONL and metrics JSON are fully
// deterministic for a fixed seed at any worker count. A mismatch here
// means a semantic change to event ordering, RNG stream consumption, or
// accounting, not a style regression.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "fault/plan.hpp"
#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

std::string data_path(const std::string& name) {
  return std::string(OAQ_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& name) {
  std::ifstream is(data_path(name), std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file: " << data_path(name);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The configuration `oaqctl simulate --k 9 --episodes 200 --seed 7` builds.
QosSimulationConfig golden_simulate_config() {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 200;
  cfg.seed = 7;
  cfg.mu = Rate::per_minute(0.5);
  cfg.opportunity_adaptive = true;
  cfg.protocol.tau = Duration::minutes(5.0);
  cfg.protocol.delta = Duration::seconds(12.0);
  cfg.protocol.tg = Duration::seconds(6.0);
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

/// The configuration `oaqctl campaign --k 9 --per-hour 5 --hours 10
/// --seed 3 --replications 4` builds.
CampaignConfig golden_campaign_config() {
  CampaignConfig cfg;
  cfg.k = 9;
  cfg.signal_arrival_rate = Rate::per_hour(5.0);
  cfg.horizon = Duration::hours(10.0);
  cfg.protocol.tau = Duration::minutes(5.0);
  cfg.protocol.nu = Rate::per_minute(30.0);
  cfg.protocol.computation_cap = Duration::seconds(6.0);
  cfg.compute_contention = true;
  cfg.seed = 3;
  cfg.replications = 4;
  return cfg;
}

TEST(KernelGolden, SimulateTraceAndMetricsMatchSeedKernel) {
  const std::string golden_trace = read_file("golden_simulate_trace.jsonl");
  const std::string golden_metrics = read_file("golden_simulate_metrics.json");
  ASSERT_FALSE(golden_trace.empty());
  for (const int jobs : {1, 4, 8}) {
    QosSimulationConfig cfg = golden_simulate_config();
    cfg.jobs = jobs;
    TraceCollector trace;
    MetricsRegistry metrics;
    cfg.trace = &trace;
    cfg.metrics = &metrics;
    (void)simulate_qos(cfg);
    std::ostringstream ts;
    trace.write_jsonl(ts);
    EXPECT_EQ(ts.str(), golden_trace) << "trace drifted at jobs=" << jobs;
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";  // oaqctl terminates the file with a newline
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
  }
}

TEST(KernelGolden, SimulateQueueMetricsArePerEpisode) {
  // sim.queue.* and sim.batch.* as `oaqctl simulate --metrics` exports
  // them, pinned to a capture from the sequential drain: every episode
  // reports its own ready-queue high-water and tombstone count.
  const std::string golden_metrics =
      read_file("golden_simulate_queue_metrics.json");
  ASSERT_NE(golden_metrics.find("\"sim.queue.max_entries\""),
            std::string::npos);
  for (const int jobs : {1, 4}) {
    QosSimulationConfig cfg = golden_simulate_config();
    cfg.episodes = 2000;
    cfg.seed = 1;
    cfg.queue_metrics = true;
    cfg.batch_metrics = true;
    cfg.jobs = jobs;
    MetricsRegistry metrics;
    cfg.metrics = &metrics;
    (void)simulate_qos(cfg);
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
  }
}

TEST(KernelGolden, CampaignTraceAndMetricsMatchSeedKernel) {
  const std::string golden_trace = read_file("golden_campaign_trace.jsonl");
  const std::string golden_metrics = read_file("golden_campaign_metrics.json");
  ASSERT_FALSE(golden_trace.empty());
  for (const int jobs : {1, 4}) {
    CampaignConfig cfg = golden_campaign_config();
    cfg.jobs = jobs;
    TraceCollector trace;
    MetricsRegistry metrics;
    cfg.trace = &trace;
    cfg.metrics = &metrics;
    (void)run_campaign(cfg);
    std::ostringstream ts;
    trace.write_jsonl(ts);
    EXPECT_EQ(ts.str(), golden_trace) << "trace drifted at jobs=" << jobs;
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
  }
}

/// The configuration `oaqctl campaign` builds for the degraded-link golden
/// (tests/data/README.md has the full command line): a sparse 7-plane
/// geometric constellation with earth rotation, reliable links with one
/// retry over 20 % loss, self-healing links, a Gilbert–Elliott loss clause
/// and a small scripted storm. Several plane pairs are fully lossy, so
/// finally-dropped coordination requests reach the campaign's drop
/// handler and some are re-routed around a demoted link. Queue metrics
/// stay off (library default), as for the other goldens.
struct DegradedCampaign {
  std::optional<Constellation> constellation;
  FaultPlan plan;
  CampaignConfig cfg;
};

std::unique_ptr<DegradedCampaign> degraded_campaign() {
  auto out = std::make_unique<DegradedCampaign>();
  std::ifstream shells(data_path("golden_reliable_campaign_constellation.txt"));
  EXPECT_TRUE(shells.good());
  out->constellation.emplace(build_constellation(parse_constellation(shells)));

  CampaignConfig& cfg = out->cfg;
  cfg.k = 9;
  cfg.signal_arrival_rate = Rate::per_hour(10.0);
  cfg.horizon = Duration::hours(12.0);
  cfg.protocol.tau = Duration::minutes(60.0);
  cfg.protocol.nu = Rate::per_minute(30.0);
  cfg.protocol.computation_cap = Duration::seconds(6.0);
  cfg.compute_contention = true;
  cfg.seed = 13;
  cfg.replications = 2;
  cfg.protocol.crosslink_loss_probability = 0.2;
  cfg.protocol.reliable_links = true;
  cfg.protocol.link_retry_limit = 1;
  cfg.protocol.self_healing_links = true;
  cfg.protocol.link_health_alpha = 0.9;
  cfg.constellation = &*out->constellation;
  cfg.target = GeoPoint::from_degrees(10.0, 0.0);
  cfg.earth_rotation = true;

  std::ifstream plan(data_path("golden_reliable_campaign.plan"));
  EXPECT_TRUE(plan.good());
  FaultPlan parsed = parse_fault_plan(plan, cfg.horizon);
  parsed.add(FaultPlan::ge_loss(2, 4, 0.05, 0.2, 0.9, Duration::zero(),
                                cfg.horizon));
  out->plan = parsed.resolve(*out->constellation);
  cfg.fault_plan = &out->plan;
  cfg.check_invariants = true;
  cfg.episode_attribution = true;
  return out;
}

TEST(KernelGolden, DegradedCampaignTraceMetricsAndLedgerMatch) {
  const std::string golden_trace =
      read_file("golden_reliable_campaign_trace.jsonl");
  const std::string golden_metrics =
      read_file("golden_reliable_campaign_metrics.json");
  const std::string golden_ledger =
      read_file("golden_reliable_campaign_ledger.json");
  ASSERT_FALSE(golden_trace.empty());
  // The golden must exercise the routed drop handler, re-routes included.
  EXPECT_NE(golden_metrics.find("\"net.health.reroutes\":"),
            std::string::npos);
  EXPECT_EQ(golden_metrics.find("\"net.health.reroutes\":0"),
            std::string::npos);
  for (const int jobs : {1, 4}) {
    const auto run = degraded_campaign();
    run->cfg.jobs = jobs;
    TraceCollector trace;
    MetricsRegistry metrics;
    EpisodeLedger ledger;
    run->cfg.trace = &trace;
    run->cfg.metrics = &metrics;
    run->cfg.ledger = &ledger;
    const CampaignResult r = run_campaign(run->cfg);
    EXPECT_EQ(r.invariant_violations, 0) << "jobs=" << jobs;
    std::ostringstream ts;
    trace.write_jsonl(ts);
    EXPECT_EQ(ts.str(), golden_trace) << "trace drifted at jobs=" << jobs;
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
    std::ostringstream ls;
    ledger.write_json(ls);
    EXPECT_EQ(ls.str(), golden_ledger) << "ledger drifted at jobs=" << jobs;
  }
}

}  // namespace
}  // namespace oaq
