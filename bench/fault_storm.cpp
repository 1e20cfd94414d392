// Fault-injection harness (ISSUE 5 tentpole): cost of the fault engine.
//
// Two measurements, one acceptance gate:
//   1. Empty-plan overhead — simulate_qos with an attached-but-empty
//      FaultPlan vs no plan at all, as the median of interleaved pair
//      ratios (bench/overhead_ab.hpp). Gate: <= 5% wall-clock overhead
//      (the hooks must be branch-cheap when nothing is scripted).
//   2. Storm throughput — episodes/sec with a six-clause plan mixing all
//      clause types, plus invariant checking. Informational (the
//      correctness side is tests/faultinject).
// The injection hot path's zero steady-state allocations are a tier-1
// test (SteadyStateAllocs.FaultInjectionRound in tests/alloc).
//
// Prints a human table plus a BENCH_JSON line, and exits 1 when the gate
// fails.
//
//   fault_storm [episodes]
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "overhead_ab.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A plan touching every clause kind, sized for the analytic single-plane
/// episode (plane 0, slots 0..k-1). Windows overlap deliberately.
FaultPlan storm_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(
      FaultPlan::link_outage(0, 0, Duration::minutes(0.5), Duration::minutes(3.0)));
  plan.add(
      FaultPlan::delay_spike(3.0, Duration::minutes(1.0), Duration::minutes(5.0)));
  plan.add(
      FaultPlan::burst_loss(0.3, Duration::minutes(0.0), Duration::minutes(2.0)));
  plan.add(
      FaultPlan::partition(0x1, Duration::minutes(2.0), Duration::minutes(6.0)));
  return plan;
}

QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.jobs = 1;  // serial: wall-clock comparisons without scheduler noise
  return cfg;
}

/// Episodes/sec of one simulate_qos run.
double run_once(const QosSimulationConfig& cfg) {
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(qos.episodes) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 40000;

  std::cout << "=== fault injection engine (" << episodes
            << " episodes) ===\n\n";

  const FaultPlan empty;
  const FaultPlan storm = storm_plan();

  QosSimulationConfig cfg_base = base_config(episodes);
  QosSimulationConfig cfg_empty = base_config(episodes);
  cfg_empty.fault_plan = &empty;
  QosSimulationConfig cfg_storm = base_config(episodes);
  cfg_storm.fault_plan = &storm;
  cfg_storm.check_invariants = true;

  const bench::OverheadAb ab = bench::measure_overhead(
      [&] { (void)run_once(cfg_base); }, [&] { (void)run_once(cfg_empty); });
  const double overhead = ab.overhead();
  const double base_eps = episodes / ab.baseline_s;
  const double empty_eps = episodes / ab.variant_s;
  const double storm_eps = run_once(cfg_storm);

  TablePrinter table({"workload", "episodes/s", "vs baseline"}, 2);
  table.add_row({std::string("baseline (no plan)"), base_eps, 1.0});
  table.add_row(
      {std::string("empty plan attached"), empty_eps, empty_eps / base_eps});
  table.add_row({std::string("6-clause storm"), storm_eps, storm_eps / base_eps});
  table.print(std::cout);
  std::cout << "\nempty-plan overhead: " << overhead * 100.0
            << "% (median of " << ab.pairs << " pair ratios, IQR "
            << ab.iqr() * 100.0 << " points, " << ab.reps
            << " runs per side)\n";

  std::ostringstream json;
  json << "{\"bench\":\"fault_storm\",\"episodes\":" << episodes
       << ",\"empty_plan_overhead\":{\"baseline_episodes_per_sec\":" << base_eps
       << ",\"empty_plan_episodes_per_sec\":" << empty_eps
       << ",\"overhead_fraction\":" << overhead
       << ",\"overhead_iqr\":" << ab.iqr() << ",\"pairs\":" << ab.pairs
       << "},\"storm_episodes_per_sec\":" << storm_eps << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gate: attaching an empty plan costs <= 5%
  // wall-clock.
  const bool ok = overhead <= 0.05;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
