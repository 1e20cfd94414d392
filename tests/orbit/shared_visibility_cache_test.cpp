// SharedVisibilityCache seed/freeze contract: windows seeded on one
// thread, frozen, then read concurrently — values always equal a fresh
// single-threaded VisibilityCache, every successful query is a hit, and a
// window that was not seeded is a precondition failure. Built into
// test_geometry, which the ThreadSanitizer CI job runs to certify the
// frozen reads data-race-free.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.hpp"
#include "orbit/constellation.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "orbit/visibility_cache.hpp"

namespace oaq {
namespace {

Constellation test_constellation() {
  ConstellationDesign design;
  design.num_planes = 2;
  design.sats_per_plane = 8;
  design.inclination_rad = deg2rad(85.0);
  return Constellation(design);
}

std::vector<GeoPoint> test_targets() {
  return {{0.1, 0.2}, {0.8, -1.1}, {-0.5, 2.4}, {1.2, 0.0},
          {0.0, -2.9}, {0.4, 1.7}, {-1.0, -0.3}, {0.9, 3.0}};
}

TEST(SharedVisibilityCache, MatchesFreshVisibilityCacheExactly) {
  const Constellation c = test_constellation();
  VisibilityCacheOptions opt;
  opt.window_quantum = Duration::minutes(45);

  SharedVisibilityCache shared(c, true, opt);
  VisibilityCache fresh(c, true, opt);

  // The first two windows quantize to one key; the short clamped-negative
  // one and the shifted one to two more. Each is seeded with its own
  // bounds, so every query below hits — and must clip identically to the
  // single-threaded cache.
  const GeoPoint target{0.3, -0.7};
  const std::vector<std::pair<Duration, Duration>> windows = {
      {Duration::zero(), Duration::hours(2)},
      {Duration::minutes(10), Duration::minutes(95)},
      {Duration::seconds(-50.0), Duration::minutes(30)},
      {Duration::hours(3), Duration::hours(5)},
  };
  for (const auto& [from, to] : windows) shared.seed_window(target, from, to);
  shared.freeze();
  EXPECT_TRUE(shared.frozen());
  EXPECT_EQ(shared.frozen_entries(), 3u);

  VisibilityCacheStats stats;
  for (const auto& [from, to] : windows) {
    const std::vector<Pass> got = shared.passes_window(target, from, to, &stats);
    const std::vector<Pass> want = fresh.passes_window(target, from, to);
    ASSERT_EQ(got.size(), want.size()) << "window " << from.to_seconds();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].satellite, want[i].satellite);
      EXPECT_EQ(got[i].start.to_seconds(), want[i].start.to_seconds());
      EXPECT_EQ(got[i].end.to_seconds(), want[i].end.to_seconds());
    }
  }
  EXPECT_EQ(stats.pass_queries, 4u);
  EXPECT_EQ(stats.pass_hits, stats.pass_queries);

  // A window outside every seeded key, and a seed after freeze, fail.
  EXPECT_THROW((void)shared.passes_window(target, Duration::hours(6),
                                          Duration::hours(7), &stats),
               PreconditionError);
  EXPECT_THROW(shared.seed_window(target, Duration::zero(), Duration::hours(1)),
               PreconditionError);
  EXPECT_EQ(stats.pass_queries, 4u);
}

TEST(SharedVisibilityCache, EmptyWindowAfterClampReturnsNothing) {
  const Constellation c = test_constellation();
  SharedVisibilityCache shared(c, false);
  shared.freeze();
  VisibilityCacheStats stats;
  const std::vector<Pass> got = shared.passes_window(
      {0.1, 0.1}, Duration::seconds(-100.0), Duration::seconds(-1.0), &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.pass_queries, 0u);  // clamped-empty windows are free
}

TEST(SharedVisibilityCache, ConcurrentFrozenReads) {
  const Constellation c = test_constellation();
  VisibilityCacheOptions opt;
  opt.window_quantum = Duration::minutes(30);
  SharedVisibilityCache shared(c, true, opt);
  const std::vector<GeoPoint> targets = test_targets();
  for (const GeoPoint& target : targets) {
    shared.seed_window(target, Duration::zero(), Duration::hours(1));
  }
  shared.freeze();
  ASSERT_EQ(shared.frozen_entries(), targets.size());

  // Four threads read the frozen cache at once. Every thread must observe
  // values identical to a private single-threaded cache, and TSan must see
  // no races.
  std::vector<VisibilityCacheStats> stats(4);
  std::vector<int> mismatches(4, 0);
  {
    std::vector<std::thread> readers;
    for (int th = 0; th < 4; ++th) {
      readers.emplace_back([&, th] {
        VisibilityCache fresh(c, true, opt);
        std::vector<Pass> got;
        for (int rep = 0; rep < 3; ++rep) {
          for (const GeoPoint& target : targets) {
            shared.passes_window_into(target, Duration::minutes(5),
                                      Duration::minutes(50), got, &stats[th]);
            const std::vector<Pass> want = fresh.passes_window(
                target, Duration::minutes(5), Duration::minutes(50));
            if (got.size() != want.size()) ++mismatches[th];
            for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
              if (got[i].satellite != want[i].satellite ||
                  got[i].start != want[i].start || got[i].end != want[i].end) {
                ++mismatches[th];
              }
            }
          }
        }
      });
    }
    for (auto& t : readers) t.join();
  }
  for (int th = 0; th < 4; ++th) {
    EXPECT_EQ(mismatches[th], 0) << "thread " << th;
    EXPECT_EQ(stats[th].pass_queries, 3u * targets.size());
    EXPECT_EQ(stats[th].pass_hits, stats[th].pass_queries);
  }
}

}  // namespace
}  // namespace oaq
