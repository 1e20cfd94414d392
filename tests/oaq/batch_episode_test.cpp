// SoA episode batching (ISSUE 6): the batched analytic path must be an
// observationally perfect stand-in for the scalar per-episode loop —
// identical trace bytes, metrics bytes, and aggregate statistics — and the
// closed-form escape classifier must agree with TargetEpisode::arm() on
// every sampled (phase, duration) pair.
#include "oaq/batch_episode.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/distribution.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"

namespace oaq {
namespace {

/// The golden-trace protocol shape: k = 9, bounded computations, nonzero
/// messaging delays — the configuration whose DES path is busiest.
QosSimulationConfig protocol_config(int episodes, bool oaq) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.opportunity_adaptive = oaq;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

struct Snapshot {
  SimulatedQos qos;
  std::string trace;
  std::string metrics;
};

Snapshot run(QosSimulationConfig cfg, bool batched) {
  cfg.batch_episodes = batched;
  TraceCollector trace;
  MetricsRegistry metrics;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  Snapshot s;
  s.qos = simulate_qos(cfg);
  std::ostringstream ts;
  trace.write_jsonl(ts);
  s.trace = ts.str();
  std::ostringstream ms;
  metrics.write_json(ms);
  s.metrics = ms.str();
  return s;
}

void expect_bitwise_equal(const QosSimulationConfig& cfg,
                          const std::string& label) {
  const Snapshot scalar = run(cfg, /*batched=*/false);
  const Snapshot batched = run(cfg, /*batched=*/true);
  EXPECT_EQ(batched.trace, scalar.trace) << label << ": trace drifted";
  EXPECT_EQ(batched.metrics, scalar.metrics) << label << ": metrics drifted";
  EXPECT_EQ(batched.qos.episodes, scalar.qos.episodes) << label;
  EXPECT_EQ(batched.qos.duplicates, scalar.qos.duplicates) << label;
  EXPECT_EQ(batched.qos.unresolved, scalar.qos.unresolved) << label;
  EXPECT_EQ(batched.qos.untimely, scalar.qos.untimely) << label;
  EXPECT_EQ(batched.qos.max_chain_length, scalar.qos.max_chain_length) << label;
  EXPECT_EQ(batched.qos.mean_chain_length, scalar.qos.mean_chain_length)
      << label;
  EXPECT_EQ(batched.qos.invariant_violations, scalar.qos.invariant_violations)
      << label;
  for (int y = 0; y <= 3; ++y) {
    EXPECT_EQ(batched.qos.level_pmf.probability(y),
              scalar.qos.level_pmf.probability(y))
        << label << ": level " << y;
  }
}

TEST(BatchEpisode, BitwiseEqualAcrossWorkerCounts) {
  for (const int jobs : {1, 4, 8}) {
    auto cfg = protocol_config(400, /*oaq=*/true);
    cfg.jobs = jobs;
    expect_bitwise_equal(cfg, "oaq jobs=" + std::to_string(jobs));
  }
}

TEST(BatchEpisode, BitwiseEqualUnderBaq) {
  for (const int jobs : {1, 4}) {
    auto cfg = protocol_config(400, /*oaq=*/false);
    cfg.jobs = jobs;
    expect_bitwise_equal(cfg, "baq jobs=" + std::to_string(jobs));
  }
}

TEST(BatchEpisode, BitwiseEqualAcrossDurationLaws) {
  // Eccentric duration laws stress the escape classifier: near-zero
  // deterministic signals escape almost always, heavy-tailed Weibull
  // signals almost never, and a uniform law straddles the pass length.
  const std::vector<
      std::pair<std::string, std::shared_ptr<const DurationDistribution>>>
      laws = {
          {"det_short", std::make_shared<DeterministicDuration>(
                            Duration::seconds(2.0))},
          {"weibull_heavy", std::make_shared<WeibullDuration>(
                                WeibullDuration::with_mean(
                                    0.6, Duration::minutes(2.0)))},
          {"uniform", std::make_shared<UniformDuration>(
                          Duration::seconds(5.0), Duration::minutes(10.0))},
      };
  for (const auto& [name, law] : laws) {
    auto cfg = protocol_config(300, /*oaq=*/true);
    cfg.duration_distribution = law;
    cfg.jobs = 4;
    expect_bitwise_equal(cfg, name);
  }
}

TEST(BatchEpisode, BitwiseEqualWithFaultPlanAttached) {
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(FaultPlan::delay_spike(3.0, Duration::minutes(1.0),
                                  Duration::minutes(5.0)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(0.0),
                                 Duration::minutes(2.0)));
  for (const int jobs : {1, 4}) {
    auto cfg = protocol_config(300, /*oaq=*/true);
    cfg.fault_plan = &plan;
    cfg.check_invariants = true;
    cfg.jobs = jobs;
    expect_bitwise_equal(cfg, "faults jobs=" + std::to_string(jobs));
  }
}

/// TargetEpisode::arm()'s detection decision, replayed over a materialized
/// pass list: any pass covering the signal start, else the first pass
/// starting inside [sig_start, sig_end).
bool arm_oracle(const PlaneGeometry& geometry, int k, Duration phase,
                TimePoint signal_start, Duration signal_duration,
                Duration tau) {
  const AnalyticSchedule schedule(geometry, k, phase);
  const Duration from = signal_start.since_origin() - Duration::minutes(20);
  const Duration to = signal_start.since_origin() +
                      std::min(signal_duration, Duration::minutes(30)) + tau +
                      Duration::minutes(60);
  std::vector<Pass> passes;
  schedule.passes_into(from, to, passes);
  const Duration sig_start = signal_start.since_origin();
  const Duration sig_end = sig_start + signal_duration;
  for (const auto& p : passes) {
    if (p.start <= sig_start && sig_start < p.end) return true;
  }
  for (const auto& p : passes) {
    if (p.start >= sig_start) return p.start < sig_end;
  }
  return false;
}

TEST(BatchEpisode, ClassifierAgreesWithArmOnSampledEpisodes) {
  const PlaneGeometry geometry;
  const TimePoint signal_start = TimePoint::at(Duration::minutes(60));
  Rng rng(20260808);
  for (const int k : {7, 9, 12}) {
    for (const double tau_min : {3.0, 5.0, 12.0}) {
      const Duration tau = Duration::minutes(tau_min);
      const Duration tr = geometry.tr(k);
      std::int64_t escaped = 0;
      for (int i = 0; i < 4000; ++i) {
        const Duration phase = rng.uniform(Duration::zero(), tr);
        // Log-uniform-ish spread from sub-second blips to multi-hour
        // signals; includes durations far longer than the 30-minute cap.
        const double mins = std::pow(10.0, rng.uniform(-1.5, 2.5));
        const Duration duration = Duration::minutes(mins);
        const bool fast = analytic_signal_detected(geometry, k, phase,
                                                   signal_start, duration, tau);
        const bool slow =
            arm_oracle(geometry, k, phase, signal_start, duration, tau);
        ASSERT_EQ(fast, slow) << "k=" << k << " tau=" << tau_min
                              << " phase_min=" << phase.to_minutes()
                              << " dur_min=" << mins;
        if (!fast) ++escaped;
      }
      // With coverage gaps (Tr > Tc) the sample must hit the escape path;
      // under continuous coverage (k = 12 here) nothing can escape.
      if (tr > geometry.tc()) {
        EXPECT_GT(escaped, 0) << "k=" << k << " tau=" << tau_min
                              << ": sample never exercised the escape path";
      } else {
        EXPECT_EQ(escaped, 0) << "k=" << k << " tau=" << tau_min;
      }
    }
  }
}

TEST(BatchEpisode, StatsPartitionEpisodes) {
  auto cfg = protocol_config(257, /*oaq=*/true);  // deliberately not 8-aligned
  cfg.jobs = 1;
  cfg.batch_metrics = true;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  std::ostringstream os;
  metrics.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"sim.batch.episodes\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.batch.occupancy."), std::string::npos);
}

}  // namespace
}  // namespace oaq
