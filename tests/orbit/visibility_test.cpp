#include "orbit/visibility.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dense_passes.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

/// Single-plane constellation whose plane 0 passes over the target's
/// longitude; target on the ground-track centerline (equator crossing).
Constellation single_plane(int k) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = k;
  d.inclination_rad = deg2rad(90.0);  // polar: ground track along a meridian
  return Constellation(d);
}

TEST(PassPredictor, CenterlinePassLastsCoverageTime) {
  // A point on the ground track is covered for exactly Tc = 9 min.
  auto c = single_plane(10);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};  // on the track (node at lon 0)
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  ASSERT_FALSE(passes.empty());
  // Interior passes (not clipped by the horizon) last Tc.
  int interior = 0;
  for (const auto& p : passes) {
    if (p.start > Duration::zero() && p.end < Duration::minutes(90.0)) {
      EXPECT_NEAR(p.duration().to_minutes(), 9.0, 0.01);
      ++interior;
    }
  }
  EXPECT_GE(interior, 7);
}

TEST(PassPredictor, RevisitIntervalMatchesTrOfK) {
  auto c = single_plane(10);  // Tr = 9 min = Tc: back-to-back coverage
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  ASSERT_GE(passes.size(), 3u);
  // Skip horizon-clipped passes; interior pass starts are spaced Tr apart.
  for (std::size_t i = 2; i + 1 < passes.size(); ++i) {
    const double gap = (passes[i].start - passes[i - 1].start).to_minutes();
    EXPECT_NEAR(gap, 9.0, 0.02) << "pass " << i;
  }
}

TEST(PassPredictor, OverlappingPlaneShowsSimultaneousCoverage) {
  // k = 14 > 10: Tr < Tc, adjacent footprints overlap on the centerline.
  auto c = single_plane(14);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  const auto timeline = PassPredictor::multiplicity_timeline(
      passes, Duration::zero(), Duration::minutes(90.0));
  const auto stats = PassPredictor::summarize(timeline);
  EXPECT_EQ(stats.max_multiplicity, 2);
  EXPECT_GT(stats.multiple.to_minutes(), 1.0);
  EXPECT_NEAR(stats.uncovered.to_minutes(), 0.0, 0.05);
  // Overlap share per period should be L2 = Tc − Tr ≈ 2.571 min out of
  // every Tr ≈ 6.43 min.
  const double expected_multi_fraction = (9.0 - 90.0 / 14.0) / (90.0 / 14.0);
  EXPECT_NEAR(stats.multiple / stats.horizon, expected_multi_fraction, 0.02);
}

TEST(PassPredictor, UnderlappingPlaneShowsGaps) {
  // k = 9 < 10: Tr = 10 min > Tc = 9 min; 1-minute gaps appear.
  auto c = single_plane(9);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  const auto timeline = PassPredictor::multiplicity_timeline(
      passes, Duration::zero(), Duration::minutes(90.0));
  const auto stats = PassPredictor::summarize(timeline);
  EXPECT_EQ(stats.max_multiplicity, 1);
  EXPECT_NEAR(stats.longest_gap.to_minutes(), 1.0, 0.02);
  EXPECT_NEAR(stats.uncovered.to_minutes(), 9.0, 0.2);  // 9 gaps × 1 min
}

TEST(PassPredictor, TimelinePartitionsHorizonExactly) {
  auto c = single_plane(12);
  const PassPredictor pred(c);
  const auto t0 = Duration::zero();
  const auto t1 = Duration::minutes(45.0);
  const auto passes = pred.passes(GeoPoint{0.0, 0.0}, t0, t1);
  const auto timeline = PassPredictor::multiplicity_timeline(passes, t0, t1);
  ASSERT_FALSE(timeline.empty());
  EXPECT_EQ(timeline.front().start, t0);
  EXPECT_EQ(timeline.back().end, t1);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].start, timeline[i - 1].end);
    EXPECT_GT(timeline[i].duration(), Duration::zero());
  }
  // Segment multiplicity changes between adjacent segments.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_NE(timeline[i].satellites, timeline[i - 1].satellites);
  }
}

TEST(PassPredictor, OffTrackPointHasShorterPasses) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  // 10° off the track: chord through the 18°-radius cap is shorter.
  const auto passes = pred.passes(GeoPoint::from_degrees(0.0, 10.0),
                                  Duration::zero(), Duration::minutes(90.0));
  ASSERT_FALSE(passes.empty());
  for (const auto& p : passes) {
    if (p.start > Duration::zero() && p.end < Duration::minutes(90.0)) {
      EXPECT_LT(p.duration().to_minutes(), 9.0);
      EXPECT_GT(p.duration().to_minutes(), 5.0);
    }
  }
}

TEST(PassPredictor, FarOffTrackPointSeesNothing) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  const auto passes = pred.passes(GeoPoint::from_degrees(0.0, 90.0),
                                  Duration::zero(), Duration::minutes(90.0));
  EXPECT_TRUE(passes.empty());
}

TEST(PassPredictor, RejectsEmptyHorizon) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  EXPECT_THROW(
      (void)pred.passes(GeoPoint{}, Duration::minutes(5), Duration::minutes(5)),
      PreconditionError);
}

TEST(PassPredictor, GrazingPassesAreNotEmitted) {
  // A 40/8/1 delta shell at 60° inclination over a 50° target: some
  // satellites only graze the footprint edge, and root refinement can
  // collapse such a crossing pair onto one instant (e.g. sat 6/3 near
  // 69000 s). A zero-length pass covers nothing, so none may be emitted.
  std::istringstream shell("shell 40 8 1 781 60 delta 0 10 period 100\n");
  const Constellation c = build_constellation(parse_constellation(shell));
  const PassPredictor pred(c);
  const auto passes = pred.passes(GeoPoint::from_degrees(50.0, 0.0),
                                  Duration::zero(), Duration::hours(20.0));
  ASSERT_FALSE(passes.empty());
  for (const auto& p : passes) {
    EXPECT_LT(p.start, p.end) << "sat " << p.satellite.plane << "/"
                              << p.satellite.slot << " at "
                              << p.start.to_seconds() << " s";
  }
}

/// Bitwise pass-vector comparison: satellite ids equal, start and end
/// doubles equal by memcmp (so even -0.0 vs 0.0 or NaN payloads differ).
void expect_bitwise_equal(const std::vector<Pass>& got,
                          const std::vector<Pass>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double gs = got[i].start.to_seconds();
    const double ws = want[i].start.to_seconds();
    const double ge = got[i].end.to_seconds();
    const double we = want[i].end.to_seconds();
    EXPECT_EQ(got[i].satellite, want[i].satellite) << what << " pass " << i;
    EXPECT_EQ(std::memcmp(&gs, &ws, sizeof gs), 0)
        << what << " pass " << i << " start " << gs << " vs " << ws;
    EXPECT_EQ(std::memcmp(&ge, &we, sizeof ge), 0)
        << what << " pass " << i << " end " << ge << " vs " << we;
  }
}

/// PassPredictor::passes against the unpruned sweep for one query.
void expect_matches_dense(const Constellation& c, bool earth_rotation,
                          const GeoPoint& target, Duration t0, Duration t1,
                          const std::string& what) {
  const PassPredictor pred(c, earth_rotation);
  expect_bitwise_equal(pred.passes(target, t0, t1),
                       dense_passes(c, earth_rotation, target, t0, t1), what);
}

constexpr double kLatitudesDeg[] = {0.0, 23.0, 50.0, -70.0, 89.0};

TEST(PassPredictor, MatchesDenseSweepBitForBit) {
  // Every preset over a ~4.7 h window (the starlink seed window), at five
  // latitudes, with and without Earth rotation.
  for (const auto name : constellation_preset_names()) {
    const Constellation c =
        ConstellationBuilder::preset(std::string(name)).build();
    for (const double lat : kLatitudesDeg) {
      for (const bool rotation : {false, true}) {
        expect_matches_dense(c, rotation, GeoPoint::from_degrees(lat, 0.0),
                             Duration::zero(), Duration::seconds(17000.0),
                             std::string(name) + " lat " +
                                 std::to_string(lat) +
                                 (rotation ? " rot" : ""));
      }
    }
  }
  // A window that does not start on the epoch.
  const Constellation starlink = ConstellationBuilder::preset("starlink").build();
  expect_matches_dense(starlink, true, GeoPoint::from_degrees(23.0, -40.0),
                       Duration::seconds(1234.5), Duration::hours(6.0),
                       "starlink t0 > 0");
  // The grazing shell of GrazingPassesAreNotEmitted, from its data file.
  std::ifstream grazing(std::string(OAQ_TEST_DATA_DIR) +
                        "/grazing_pass_constellation.txt");
  ASSERT_TRUE(grazing.good());
  const Constellation g = build_constellation(parse_constellation(grazing));
  for (const bool rotation : {false, true}) {
    expect_matches_dense(g, rotation, GeoPoint::from_degrees(50.0, 0.0),
                         Duration::zero(), Duration::hours(20.0),
                         std::string("grazing") + (rotation ? " rot" : ""));
  }
  // ψ = 90°: no plane may be culled, and the skip-ahead still applies.
  std::istringstream hemisphere("shell 40 8 1 781 60 delta 0 90\n");
  const Constellation h = build_constellation(parse_constellation(hemisphere));
  for (int p = 0; p < h.num_planes(); ++p) {
    EXPECT_FALSE(PassPredictor(h).plane_out_of_reach(
        p, GeoPoint::from_degrees(89.0, 0.0), Duration::zero(),
        Duration::hours(2.0)));
  }
  for (const double lat : kLatitudesDeg) {
    expect_matches_dense(h, true, GeoPoint::from_degrees(lat, 0.0),
                         Duration::seconds(123.0), Duration::hours(6.0),
                         "footprint 90 lat " + std::to_string(lat));
  }
}

/// Two J2 shells (starlink + oneweb) over [500 s, 30 h]: node regression,
/// apsidal drift, a window that does not start at 0, and two sample grids
/// in one query. One instance per latitude (the dense reference costs
/// seconds per query), each with and without Earth rotation.
class PassPredictorJ2 : public ::testing::TestWithParam<double> {};

TEST_P(PassPredictorJ2, MatchesDenseSweepBitForBit) {
  std::vector<ConstellationDesign> shells;
  for (const char* name : {"starlink", "oneweb"}) {
    ConstellationDesign d = design_from_shell(constellation_preset(name)[0]);
    d.j2 = true;
    shells.push_back(d);
  }
  const Constellation j2(shells);
  for (const bool rotation : {false, true}) {
    expect_matches_dense(j2, rotation, GeoPoint::from_degrees(GetParam(), 10.0),
                         Duration::seconds(500.0), Duration::hours(30.0),
                         std::string("j2 starlink+oneweb") +
                             (rotation ? " rot" : ""));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TwoShells, PassPredictorJ2, ::testing::ValuesIn(kLatitudesDeg),
    [](const ::testing::TestParamInfo<double>& info) {
      const int lat = static_cast<int>(info.param);
      return (lat < 0 ? "lat_m" : "lat_") + std::to_string(std::abs(lat));
    });

TEST(PassPredictor, CulledPlanesHaveNoDensePass) {
  // Property of the plane cull alone: whenever it calls a plane empty over
  // a window, the unpruned sweep finds no pass of that plane there.
  Rng rng(20031);
  int culled = 0;
  int kept = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ConstellationDesign d;
    d.num_planes = 6;
    d.sats_per_plane = 5;
    d.period = Duration::minutes(rng.uniform(90.0, 130.0));
    d.coverage_time = d.period * rng.uniform(0.02, 0.2);
    d.inclination_rad = rng.uniform(0.05, kPi - 0.05);
    d.raan_spread_rad = rng.uniform(0.5, 2.0 * kPi);
    d.phasing_factor = static_cast<int>(rng.uniform_index(6));
    d.j2 = rng.bernoulli(0.5);
    const Constellation c(d);
    const bool rotation = rng.bernoulli(0.5);
    const GeoPoint target{rng.uniform(-kPi / 2.0, kPi / 2.0),
                          rng.uniform(-kPi, kPi)};
    const Duration t0 = Duration::seconds(rng.uniform(0.0, 50000.0));
    const Duration t1 = t0 + Duration::seconds(rng.uniform(600.0, 20000.0));
    const PassPredictor pred(c, rotation);
    const auto dense = dense_passes(c, rotation, target, t0, t1);
    for (int p = 0; p < c.num_planes(); ++p) {
      if (!pred.plane_out_of_reach(p, target, t0, t1)) {
        ++kept;
        continue;
      }
      ++culled;
      for (const Pass& pass : dense) {
        EXPECT_NE(pass.satellite.plane, p)
            << "trial " << trial << ": culled plane " << p << " has a pass at "
            << pass.start.to_seconds() << " s";
      }
    }
  }
  // Both outcomes must be exercised for the property to mean anything.
  EXPECT_GT(culled, 30);
  EXPECT_GT(kept, 30);
}

}  // namespace
}  // namespace oaq
