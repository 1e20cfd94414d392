#include "orbit/visibility_cache.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace oaq {
namespace {

Constellation small_polar_plane() {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  return Constellation(d);
}

void expect_same_passes(const std::vector<Pass>& a,
                        const std::vector<Pass>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].satellite, b[i].satellite) << "pass " << i;
    EXPECT_EQ(a[i].start.to_seconds(), b[i].start.to_seconds()) << i;
    EXPECT_EQ(a[i].end.to_seconds(), b[i].end.to_seconds()) << i;
  }
}

TEST(VisibilityCache, MemoizedPassesAreBitIdenticalToPredictor) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  const Duration t0 = Duration::zero();
  const Duration t1 = Duration::minutes(90);

  VisibilityCache cache(c);
  const PassPredictor direct(c);
  expect_same_passes(cache.passes(target, t0, t1),
                     direct.passes(target, t0, t1));
  EXPECT_EQ(cache.stats().pass_queries, 1u);
  EXPECT_EQ(cache.stats().pass_hits, 0u);
}

TEST(VisibilityCache, RepeatQueryHitsAndReturnsTheSameEntry) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  VisibilityCache cache(c);
  const auto& first =
      cache.passes(target, Duration::zero(), Duration::minutes(90));
  const auto& second =
      cache.passes(target, Duration::zero(), Duration::minutes(90));
  EXPECT_EQ(&first, &second);  // stable reference, no recomputation
  EXPECT_EQ(cache.stats().pass_queries, 2u);
  EXPECT_EQ(cache.stats().pass_hits, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(VisibilityCache, DistinctWindowsAndTargetsAreDistinctEntries) {
  const Constellation c = small_polar_plane();
  VisibilityCache cache(c);
  (void)cache.passes(GeoPoint{0.0, 0.0}, Duration::zero(),
                     Duration::minutes(90));
  (void)cache.passes(GeoPoint{0.0, 0.0}, Duration::zero(),
                     Duration::minutes(45));
  (void)cache.passes(GeoPoint{0.1, 0.0}, Duration::zero(),
                     Duration::minutes(90));
  EXPECT_EQ(cache.stats().pass_hits, 0u);
  EXPECT_EQ(cache.entry_count(), 3u);
}

TEST(VisibilityCache, WindowQueriesShareTheQuantizedComputation) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  VisibilityCache cache(c);
  // Both requests round out to [0h, 1h]: one miss, then a hit.
  (void)cache.passes_window(target, Duration::minutes(10),
                            Duration::minutes(50));
  (void)cache.passes_window(target, Duration::minutes(20),
                            Duration::minutes(55));
  EXPECT_EQ(cache.stats().pass_queries, 2u);
  EXPECT_EQ(cache.stats().pass_hits, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(VisibilityCache, WindowResultIsTheQuantizedSupersetClipped) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  const Duration from = Duration::minutes(10);
  const Duration to = Duration::minutes(50);
  VisibilityCache cache(c);

  const auto got = cache.passes_window(target, from, to);
  // Manual reference: compute the enclosing [0h, 1h] window and clip.
  const PassPredictor direct(c);
  std::vector<Pass> expect;
  for (const Pass& p :
       direct.passes(target, Duration::zero(), Duration::hours(1))) {
    if (p.end <= from || p.start >= to) continue;
    expect.push_back(
        {p.satellite, std::max(p.start, from), std::min(p.end, to)});
  }
  ASSERT_FALSE(got.empty());
  expect_same_passes(got, expect);
  for (const Pass& p : got) {
    EXPECT_GE(p.start, from);
    EXPECT_LE(p.end, to);
    EXPECT_LT(p.start, p.end);
  }
}

TEST(VisibilityCache, WindowResultIsIndependentOfQueryOrder) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  const Duration a0 = Duration::minutes(15), a1 = Duration::minutes(70);
  const Duration b0 = Duration::minutes(100), b1 = Duration::minutes(160);

  VisibilityCache forward(c);
  const auto fa = forward.passes_window(target, a0, a1);
  const auto fb = forward.passes_window(target, b0, b1);
  VisibilityCache backward(c);
  const auto bb = backward.passes_window(target, b0, b1);
  const auto ba = backward.passes_window(target, a0, a1);
  expect_same_passes(fa, ba);
  expect_same_passes(fb, bb);
}

TEST(VisibilityCache, NegativeWindowStartIsClampedLikeTheSchedule) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  VisibilityCache cache(c);
  const auto got =
      cache.passes_window(target, Duration::minutes(-30), Duration::minutes(30));
  for (const Pass& p : got) EXPECT_GE(p.start, Duration::zero());
}

TEST(VisibilityCache, RejectsBadOptionsAndWindows) {
  const Constellation c = small_polar_plane();
  VisibilityCache::Options bad;
  bad.window_quantum = Duration::zero();
  EXPECT_THROW(VisibilityCache(c, false, bad), PreconditionError);
  bad = {};
  bad.tol = Duration::zero();
  EXPECT_THROW(VisibilityCache(c, false, bad), PreconditionError);
  VisibilityCache cache(c);
  EXPECT_THROW((void)cache.passes_window(GeoPoint{0.0, 0.0},
                                         Duration::minutes(5),
                                         Duration::minutes(5)),
               PreconditionError);
}

}  // namespace
}  // namespace oaq
