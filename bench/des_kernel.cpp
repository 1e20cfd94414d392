// DES hot-path harness (ISSUE 3 tentpole): old-vs-new kernel throughput,
// cancel-heavy churn, and cached-vs-uncached visibility queries. Prints a
// human table plus BENCH_JSON lines, and exits 1 when a gate fails. The
// kernel's zero steady-state allocations per event are a tier-1 test
// (SteadyStateAllocs.DesKernelPerEvent in tests/alloc).
//
//   des_kernel [events] [rounds]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/table.hpp"
#include "legacy_simulator.hpp"
#include "oaq/schedule.hpp"
#include "orbit/visibility_cache.hpp"
#include "sim/simulator.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Self-rescheduling event chain: each firing does a little arithmetic and
/// schedules its successor — the DES analogue of the protocol's
/// timeout/handoff pattern. 32 bytes of captured state: inline in the
/// pooled kernel's SmallFunction, heap-allocated by std::function.
template <typename Sim>
struct Chain {
  Sim* sim;
  std::uint64_t* fired;
  std::uint64_t budget;
  std::uint64_t salt;

  void operator()() {
    ++*fired;
    salt = salt * 2862933555777941757ull + 3037000493ull;
    if (--budget == 0) return;
    sim->schedule_after(Duration::seconds(1.0 + static_cast<double>(salt & 7)),
                        Chain(*this));
  }
};

/// Events/sec of `chains` interleaved self-rescheduling chains totalling
/// `total_events` firings.
template <typename Sim>
double schedule_fire_events_per_sec(int chains, std::uint64_t total_events) {
  Sim sim;
  std::uint64_t fired = 0;
  const std::uint64_t per_chain = total_events / static_cast<std::uint64_t>(chains);
  const auto t0 = Clock::now();
  for (int c = 0; c < chains; ++c) {
    sim.schedule_after(
        Duration::seconds(static_cast<double>(c % 16)),
        Chain<Sim>{&sim, &fired, per_chain, 0x9e3779b97f4a7c15ull + c});
  }
  sim.run();
  return static_cast<double>(fired) / seconds_since(t0);
}

/// Ops/sec of a cancel-heavy workload: every round schedules a batch,
/// cancels half of it (the protocol's wait-deadline pattern: most armed
/// timeouts never fire), and drains the rest.
template <typename Sim>
double cancel_heavy_ops_per_sec(int batch, int rounds) {
  Sim sim;
  std::vector<decltype(sim.schedule_after(Duration::zero(),
                                          typename Sim::Callback{}))>
      ids;
  ids.reserve(static_cast<std::size_t>(batch));
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    ids.clear();
    for (int b = 0; b < batch; ++b) {
      ids.push_back(sim.schedule_after(
          Duration::seconds(static_cast<double>((b * 7 + r) % 64)),
          [&sink] { ++sink; }));
    }
    for (int b = 0; b < batch; b += 2) sim.cancel(ids[static_cast<std::size_t>(b)]);
    sim.run();
    ops += static_cast<std::uint64_t>(batch) + static_cast<std::uint64_t>(batch);
  }
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Pops/sec of a pure drain: each round schedules one big batch up front
/// and then drains it with no further scheduling — the shape an episode's
/// tail (and the cancel-heavy pattern between batches) sits in. The
/// payload keeps its historical `single_run_drain` name, from the
/// merge-run queue whose sole-run fast path it measured.
template <typename Sim>
double single_run_drain_pops_per_sec(int batch, int rounds) {
  Sim sim;
  std::uint64_t sink = 0;
  std::uint64_t pops = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int b = 0; b < batch; ++b) {
      sim.schedule_after(
          Duration::seconds(static_cast<double>((b * 13 + r) % 97)),
          [&sink] { ++sink; });
    }
    sim.run();
    pops += static_cast<std::uint64_t>(batch);
  }
  if (sink == 0) std::abort();  // defeat over-eager optimizers
  return static_cast<double>(pops) / seconds_since(t0);
}

struct VisibilityNumbers {
  double uncached_qps = 0.0;
  double cached_qps = 0.0;
  double hit_rate = 0.0;
};

/// Repeated pass queries over jittered sub-windows of a 6-hour horizon —
/// the Monte-Carlo access pattern — against a fresh PassPredictor per call
/// (the pre-cache GeometricSchedule behaviour) vs a VisibilityCache.
VisibilityNumbers visibility_cached_vs_uncached(int queries) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  const GeoPoint target{0.0, 0.0};
  const GeometricSchedule uncached(c, target);
  VisibilityCache cache(c);
  const GeometricSchedule cached(cache, target);

  VisibilityNumbers out;
  std::uint64_t salt = 1;
  const auto window = [&salt] {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const double from_min = static_cast<double>(salt % 180);
    return std::pair(Duration::minutes(from_min),
                     Duration::minutes(from_min + 90.0));
  };

  auto t0 = Clock::now();
  std::size_t sink = 0;
  for (int q = 0; q < queries; ++q) {
    const auto [from, to] = window();
    sink += uncached.passes(from, to).size();
  }
  out.uncached_qps = queries / seconds_since(t0);

  salt = 1;
  t0 = Clock::now();
  for (int q = 0; q < queries; ++q) {
    const auto [from, to] = window();
    sink += cached.passes(from, to).size();
  }
  out.cached_qps = queries / seconds_since(t0);
  out.hit_rate = static_cast<double>(cache.stats().pass_hits) /
                 static_cast<double>(cache.stats().pass_queries);
  if (sink == 0) std::abort();  // defeat over-eager optimizers
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto events =
      static_cast<std::uint64_t>(argc > 1 ? std::atoll(argv[1]) : 2000000);
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 500;

  std::cout << "=== DES kernel hot path (" << events << " events, "
            << rounds << " cancel rounds) ===\n\n";

  // 4096 concurrent timers ~ a campaign shard's pending-event working set
  // (many in-flight signals x timeout/handoff/arrival timers each).
  constexpr int kChains = 4096;
  constexpr int kCancelBatch = 4096;

  const double legacy_fire =
      schedule_fire_events_per_sec<legacy::Simulator>(kChains, events);
  const double pooled_fire =
      schedule_fire_events_per_sec<Simulator>(kChains, events);
  const double legacy_cancel =
      cancel_heavy_ops_per_sec<legacy::Simulator>(kCancelBatch, rounds);
  const double pooled_cancel =
      cancel_heavy_ops_per_sec<Simulator>(kCancelBatch, rounds);
  const double legacy_drain =
      single_run_drain_pops_per_sec<legacy::Simulator>(kCancelBatch, rounds);
  const double pooled_drain =
      single_run_drain_pops_per_sec<Simulator>(kCancelBatch, rounds);
  const VisibilityNumbers vis = visibility_cached_vs_uncached(400);

  TablePrinter table({"workload", "legacy", "pooled", "speedup"}, 2);
  table.add_row({std::string("schedule+fire (ev/s)"), legacy_fire, pooled_fire,
                 pooled_fire / legacy_fire});
  table.add_row({std::string("cancel-heavy (op/s)"), legacy_cancel,
                 pooled_cancel, pooled_cancel / legacy_cancel});
  table.add_row({std::string("single-run drain (pop/s)"), legacy_drain,
                 pooled_drain, pooled_drain / legacy_drain});
  table.print(std::cout);
  std::cout << "\nvisibility passes: uncached " << vis.uncached_qps
            << " q/s, cached " << vis.cached_qps << " q/s (speedup "
            << vis.cached_qps / vis.uncached_qps << ", hit rate "
            << vis.hit_rate << ")\n";

  std::ostringstream json;
  json << "{\"bench\":\"des_kernel\",\"events\":" << events
       << ",\"schedule_fire\":{\"legacy_events_per_sec\":" << legacy_fire
       << ",\"pooled_events_per_sec\":" << pooled_fire
       << ",\"speedup\":" << pooled_fire / legacy_fire
       << "},\"cancel_heavy\":{\"legacy_ops_per_sec\":" << legacy_cancel
       << ",\"pooled_ops_per_sec\":" << pooled_cancel
       << ",\"speedup\":" << pooled_cancel / legacy_cancel
       << "},\"single_run_drain\":{\"legacy_pops_per_sec\":" << legacy_drain
       << ",\"pooled_pops_per_sec\":" << pooled_drain
       << ",\"speedup\":" << pooled_drain / legacy_drain << "}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  std::ostringstream vjson;
  vjson << "{\"bench\":\"visibility_cache\",\"queries\":" << 400
        << ",\"uncached_queries_per_sec\":" << vis.uncached_qps
        << ",\"cached_queries_per_sec\":" << vis.cached_qps
        << ",\"speedup\":" << vis.cached_qps / vis.uncached_qps
        << ",\"hit_rate\":" << vis.hit_rate << "}";
  std::cout << "BENCH_JSON " << vjson.str() << "\n";

  // Regression gates: >= 2x schedule/cancel speedup, and the pooled
  // drain no slower than the legacy heap.
  const bool ok = pooled_fire >= 2.0 * legacy_fire &&
                  pooled_cancel >= 2.0 * legacy_cancel &&
                  pooled_drain >= legacy_drain;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
