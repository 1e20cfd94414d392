// Pass prediction: when does which satellite cover a ground point?
//
// This extracts, from true constellation geometry, the α/β/γ interval
// structure that the paper's Fig. 6 timing diagrams idealize: single-
// coverage stretches, overlap windows (simultaneous multiple coverage) and
// gaps. The protocol simulator and the analytic model are cross-validated
// against these intervals.
//
// passes() samples each satellite's coverage margin on a fixed grid of
// 64 samples per footprint transit and refines every sign change with
// find_root. It evaluates only what can matter: a plane whose great
// circle never comes within ψ of the target over the window is skipped
// whole (plane_out_of_reach), and outside a pass the sweep jumps over
// grid points that a bound on the central-angle rate proves uncovered.
// Every rising crossing is still bracketed by the same two adjacent grid
// points, so the passes are bit-identical to evaluating every sample
// (tests/support/dense_passes.hpp is that reference sweep).
#pragma once

#include <vector>

#include "orbit/constellation.hpp"

namespace oaq {

/// One contiguous interval during which a single satellite's footprint
/// covers the target point.
struct Pass {
  SatelliteId satellite;
  Duration start{};
  Duration end{};

  [[nodiscard]] Duration duration() const { return end - start; }
};

/// A maximal interval with a constant set of covering satellites.
struct CoverageSegment {
  Duration start{};
  Duration end{};
  std::vector<SatelliteId> satellites;

  [[nodiscard]] int multiplicity() const {
    return static_cast<int>(satellites.size());
  }
  [[nodiscard]] Duration duration() const { return end - start; }
};

/// Aggregate coverage statistics over a horizon.
struct CoverageStats {
  Duration horizon{};
  Duration uncovered{};       ///< total gap time
  Duration single{};          ///< covered by exactly one satellite
  Duration multiple{};        ///< covered by two or more satellites
  Duration longest_gap{};
  Duration longest_single_pass{};
  int max_multiplicity = 0;
};

/// Predicts satellite passes over ground points for a constellation.
class PassPredictor {
 public:
  /// `earth_rotation` selects whether targets rotate with the Earth; the
  /// paper's periodic revisit analysis corresponds to `false`.
  explicit PassPredictor(const Constellation& constellation,
                         bool earth_rotation = false);

  /// All passes over `target` within [t0, t1], sorted by start time.
  /// Boundary crossings are refined to `tol` by bisection/Brent.
  [[nodiscard]] std::vector<Pass> passes(const GeoPoint& target, Duration t0,
                                         Duration t1,
                                         Duration tol = Duration::seconds(0.01)) const;

  /// True when no satellite of plane `plane` can come within its
  /// footprint radius of `target` anywhere in [t0, t1] — the exact plane
  /// cull passes() applies before sweeping a plane. Never true for a
  /// footprint radius of π/2 or more unless the plane has no active
  /// satellite.
  [[nodiscard]] bool plane_out_of_reach(int plane, const GeoPoint& target,
                                        Duration t0, Duration t1) const;

  /// Partition [t0, t1] into segments of constant covering-satellite sets.
  [[nodiscard]] static std::vector<CoverageSegment> multiplicity_timeline(
      const std::vector<Pass>& passes, Duration t0, Duration t1);

  /// Summarize a timeline into coverage statistics.
  [[nodiscard]] static CoverageStats summarize(
      const std::vector<CoverageSegment>& timeline);

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
};

}  // namespace oaq
