// Steady-state zero-allocation contracts of the seven hot paths.
//
// Each probe warms its path (slabs, pools, reusable buffers grow to peak
// capacity), then counts global operator-new calls (tests/support/
// alloc_counter) across a measured run of the same work; the contract is
// exactly zero. The warm-up and measured sizes are the ones the hot
// paths were accepted at. AllocCounter.CountsOneNew proves the counter is
// linked: without it every zero below would pass vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "common/distribution.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/process.hpp"
#include "net/crosslink.hpp"
#include "oaq/batch_episode.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/montecarlo_internal.hpp"
#include "oaq/pooled_episode.hpp"
#include "oaq/schedule.hpp"
#include "obs/ledger.hpp"
#include "obs/span.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "sim/simulator.hpp"

namespace oaq {
namespace {

int* volatile g_escape = nullptr;  // keeps the self-test's new observable

TEST(AllocCounter, CountsOneNew) {
  const std::uint64_t before = allocation_count();
  g_escape = new int(1);
  const std::uint64_t allocs = allocation_count() - before;
  delete g_escape;
  EXPECT_EQ(allocs, 1u);
}

/// Self-rescheduling event chain with 32 bytes of captured state: inline
/// in the kernel's SmallFunction, so scheduling a successor needs no heap.
struct Chain {
  Simulator* sim;
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

TEST(SteadyStateAllocs, DesKernelPerEvent) {
  // 4096 concurrent timers totalling 2M firings; the first half grows the
  // slab and heap, the second half is counted.
  constexpr int kChains = 4096;
  constexpr std::uint64_t kPerChain = 2000000 / kChains;
  Simulator sim;
  std::uint64_t fired = 0;
  for (int c = 0; c < kChains; ++c) {
    sim.schedule_after(Duration::seconds(static_cast<double>(c % 16)),
                       Chain{&sim, &fired, kPerChain,
                             0x9e3779b97f4a7c15ull + static_cast<unsigned>(c)});
  }
  const std::uint64_t half = kChains * kPerChain / 2;
  while (fired < half && sim.step()) {
  }
  const std::uint64_t before = allocation_count();
  sim.run();
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_EQ(fired, kChains * kPerChain);
  EXPECT_EQ(allocs, 0u) << "over " << fired - half << " events";
}

TEST(SteadyStateAllocs, FrozenCacheQuery) {
  ConstellationDesign d;
  d.num_planes = 2;
  d.sats_per_plane = 8;
  d.inclination_rad = deg2rad(85.0);
  const Constellation c(d);
  SharedVisibilityCache::Options opt;
  opt.window_quantum = Duration::hours(4);
  SharedVisibilityCache cache(c, false, opt);
  const GeoPoint target{0.0, 0.0};
  cache.seed_window(target, Duration::zero(), opt.window_quantum);
  cache.freeze();

  // Jittered sub-windows of the seeded quantum (the Monte-Carlo access
  // pattern); every one quantizes to the frozen entry.
  VisibilityCacheStats stats;
  std::vector<Pass> out;
  std::size_t passes = 0;
  std::uint64_t salt = 1;
  const auto query = [&] {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const double from_min = static_cast<double>(salt % 120);
    cache.passes_window_into(target, Duration::minutes(from_min),
                             Duration::minutes(from_min + 90.0), out, &stats);
    passes += out.size();
  };
  for (int q = 0; q < 16; ++q) query();  // grows `out` to peak capacity
  const std::uint64_t before = allocation_count();
  for (int q = 0; q < 4096; ++q) query();
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(stats.pass_hits, stats.pass_queries);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocs, FaultInjectionRound) {
  // A plan touching every clause kind on the analytic single plane
  // (plane 0, slots 0..8); windows overlap deliberately.
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(FaultPlan::link_outage(0, 0, Duration::minutes(0.5),
                                  Duration::minutes(3.0)));
  plan.add(FaultPlan::delay_spike(3.0, Duration::minutes(1.0),
                                  Duration::minutes(5.0)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(0.0),
                                 Duration::minutes(2.0)));
  plan.add(FaultPlan::partition(0x1, Duration::minutes(2.0),
                                Duration::minutes(6.0)));

  Simulator sim;
  Rng rng(99);
  CrosslinkNetwork net(sim, {}, rng.fork(1));
  for (int slot = 0; slot < 9; ++slot) {
    net.register_node(Address::sat({0, slot}), [](const Envelope&) {});
  }
  // One round is the injector's whole lifecycle: construct, arm,
  // activate, deactivate. 10000 warm rounds, 10000 counted.
  std::uint64_t activations = 0;
  const auto round = [&](int r) {
    FaultInjector injector(sim, net, plan, rng.fork(100 + r));
    injector.arm(sim.now());
    sim.run();
    activations += injector.stats().activations;
  };
  for (int r = 0; r < 10000; ++r) round(r);
  const std::uint64_t before = allocation_count();
  for (int r = 10000; r < 20000; ++r) round(r);
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_GT(activations, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocs, BatchEngineEpisode) {
  // The golden simulate shape: single plane, k = 9, OAQ, bounded
  // computations. 512 warm episodes, 3584 counted.
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  const ExponentialDuration duration_law(cfg.mu);
  BatchEpisodeEngine engine(cfg.geometry, cfg.k, cfg.protocol,
                            cfg.opportunity_adaptive, duration_law,
                            Rng(cfg.seed).fork(3), detail::qos_signal_start(),
                            /*plan=*/nullptr);
  std::int64_t results = 0;
  const BatchEpisodeEngine::ResultSink sink =
      [&results](std::int64_t, const EpisodeResult&) { ++results; };
  engine.run(0, 512, /*trace=*/nullptr, /*invariants=*/nullptr, sink);
  const std::uint64_t before = allocation_count();
  engine.run(512, 4096, /*trace=*/nullptr, /*invariants=*/nullptr, sink);
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_EQ(results, 4096);
  EXPECT_GT(engine.stats().des_lanes, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocs, SpanAndLedgerRecord) {
  // Re-entering known span paths and bumping pre-sized ledger rows: 64
  // warm iterations discover every path and touch every row, 2^18 are
  // counted.
  SpanProfiler spans;
  spans.prepare(1);
  SpanArena* arena = spans.shard_arena(0);
  EpisodeLedger ledger;
  ledger.reserve(64);
  const auto record = [&](std::int64_t i) {
    const ScopedSpan outer(arena, "episode");
    const ScopedSpan inner(arena, "drain");
    arena->add_items(1);
    ledger.record_drop(i & 63, DropReason::kLoss);
    ledger.record_retry(i & 63);
  };
  for (std::int64_t i = 0; i < 64; ++i) record(i);
  constexpr std::int64_t kIterations = 1 << 18;
  const std::uint64_t before = allocation_count();
  for (std::int64_t i = 0; i < kIterations; ++i) record(i);
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_TRUE(arena->balanced());
  EXPECT_EQ(ledger.totals().drops(), 64 + kIterations);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocs, PooledGeometricEpisode) {
  // The production pairing of simulate_qos's geometric mode: a seeded,
  // frozen SharedVisibilityCache behind a GeometricSchedule, one
  // PooledEpisodeRunner fed each episode's own streams. 64 warm starlink
  // episodes, 448 counted.
  const Constellation c = ConstellationBuilder::preset("starlink").build();
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.seed = 11;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  SharedVisibilityCache::Options opt;
  opt.window_quantum = detail::qos_visibility_quantum(cfg);
  SharedVisibilityCache cache(c, cfg.earth_rotation, opt);
  cache.seed_window(cfg.target, Duration::zero(), opt.window_quantum);
  cache.freeze();
  VisibilityCacheStats stats;
  const GeometricSchedule schedule(cache, cfg.target, &stats);
  PooledEpisodeRunner runner(schedule, c.active_satellites(), cfg.protocol,
                             cfg.opportunity_adaptive, /*plan=*/nullptr);
  const auto duration_law = detail::qos_duration_law(cfg);
  const Duration period = detail::qos_phase_period(cfg);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  std::int64_t detected = 0;
  const auto run = [&](std::int64_t e) {
    const detail::EpisodeDraw d =
        detail::draw_episode(episode_rng, e, period, *duration_law);
    const EpisodeResult& r = runner.run_episode(
        e, d.protocol, detail::qos_signal_start() + d.phase, d.duration,
        /*trace=*/nullptr, /*invariants=*/nullptr);
    if (r.detected) ++detected;
  };
  for (std::int64_t e = 0; e < 64; ++e) run(e);
  const std::uint64_t before = allocation_count();
  for (std::int64_t e = 64; e < 512; ++e) run(e);
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_GT(detected, 0);
  EXPECT_GT(stats.pass_hits, 0u);
  EXPECT_EQ(stats.pass_hits, stats.pass_queries);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocs, StochasticExpansion) {
  // The chaos-soak storm over the iridium-next shell (6 planes x 11):
  // Gilbert-Elliott flappers on every plane, two outage trains, and
  // satellite lifecycles. One long-lived expander; 10000 warm rounds,
  // 10000 counted.
  FaultPlan plan;
  for (int p = 0; p < 6; ++p) {
    plan.add(FaultPlan::ge_loss(p, p, /*p_rate=*/2.0, /*r_rate=*/6.0,
                                /*loss=*/0.9, Duration::minutes(0.0),
                                Duration::minutes(6.0)));
  }
  plan.add(FaultPlan::outage_train(0, 1, /*up_mean_min=*/1.5,
                                   /*down_mean_min=*/0.4,
                                   Duration::minutes(0.0),
                                   Duration::minutes(6.0)));
  plan.add(FaultPlan::outage_train(2, 3, /*up_mean_min=*/1.5,
                                   /*down_mean_min=*/0.4,
                                   Duration::minutes(0.5),
                                   Duration::minutes(6.0)));
  for (int p = 0; p < 6; ++p) {
    for (int slot = 0; slot < 11; slot += 3) {
      plan.add(FaultPlan::sat_lifecycle({p, slot}, /*death_rate=*/0.2,
                                        /*spare_mean_min=*/1.0,
                                        Duration::minutes(0.0),
                                        Duration::minutes(6.0)));
    }
  }
  FaultProcessExpander expander;
  const Rng rng(42);
  std::uint64_t clauses = 0;
  const auto round = [&](int r) {
    clauses +=
        expander.expand(plan, rng.fork(static_cast<std::uint64_t>(r) + 1))
            .size();
  };
  for (int r = 0; r < 10000; ++r) round(r);
  const std::uint64_t before = allocation_count();
  for (int r = 10000; r < 20000; ++r) round(r);
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_GT(clauses, 0u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace oaq
