// Span-profiler harness (ISSUE 7 tentpole): wall-clock overhead of
// running simulate_qos with the hierarchical span profiler attached vs
// detached, as the median of interleaved pair ratios
// (bench/overhead_ab.hpp). Prints a human table plus a BENCH_JSON line,
// and exits 1 when the overhead tops 5%. The record hot path's zero
// steady-state allocations are a tier-1 test
// (SteadyStateAllocs.SpanAndLedgerRecord in tests/alloc).
//
//   span_overhead [episodes]
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/span.hpp"
#include "overhead_ab.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The golden-trace simulation shape (same as episode_batch, so the two
/// benches' episodes/sec are comparable).
QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = 1;  // single-thread A/B: per-core throughput, no pool noise
  return cfg;
}

/// Episodes/sec of one simulate_qos run, spans attached or detached.
double episodes_per_sec(const QosSimulationConfig& base,
                        SpanProfiler* spans) {
  QosSimulationConfig cfg = base;
  cfg.spans = spans;
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(cfg.episodes) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 12000;

  std::cout << "=== span profiler overhead (" << episodes
            << " episodes) ===\n\n";

  const QosSimulationConfig cfg = base_config(episodes);

  SpanProfiler spans;
  const bench::OverheadAb ab = bench::measure_overhead(
      [&] { (void)episodes_per_sec(cfg, nullptr); },
      [&] { (void)episodes_per_sec(cfg, &spans); });
  const double overhead_pct = ab.overhead() * 100.0;
  const double off_eps = episodes / ab.baseline_s;
  const double on_eps = episodes / ab.variant_s;

  TablePrinter table({"path", "episodes/s", "overhead %"}, 2);
  table.add_row({std::string("spans detached"), off_eps, 0.0});
  table.add_row({std::string("spans attached"), on_eps, overhead_pct});
  table.print(std::cout);
  std::cout << "\noverhead: median of " << ab.pairs << " pair ratios, IQR "
            << ab.iqr() * 100.0 << " points, " << ab.reps
            << " runs per side\n";

  std::ostringstream json;
  json << "{\"bench\":\"span_overhead\",\"episodes\":" << episodes
       << ",\"throughput\":{\"spans_off_episodes_per_sec\":" << off_eps
       << ",\"spans_on_episodes_per_sec\":" << on_eps
       << "},\"overhead_pct\":" << overhead_pct
       << ",\"overhead_iqr_pct\":" << ab.iqr() * 100.0
       << ",\"pairs\":" << ab.pairs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gate: attaching the profiler costs <= 5% of
  // wall-clock.
  const bool ok = overhead_pct <= 5.0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
