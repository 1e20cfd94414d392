#include "orbit/visibility.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "orbit/batch_kepler.hpp"

// The pruned pass sweep. Both prunes skip only samples whose computed
// margin is provably <= 0, so each evaluated sample and each find_root
// bracket is exactly the one the dense sweep (every plane, every slot,
// every grid point) would use, and the output is bit-identical to it:
//
//   * Plane cull (plane_out_of_reach). A lower bound on every satellite's
//     central angle to the target, from the plane normal alone, in closed
//     form over the window (min_abs_sinusoid). A plane is skipped when
//     the bound exceeds ψ by a slack far above rounding.
//   * Skip-ahead. The central angle changes no faster than the bound of
//     central_angle_rate_bound, so from a sample with margin m < 0 every
//     grid point before t + (|m| − 2·slack)/L stays uncovered. The sweep
//     jumps to the first grid point past that, whose left neighbour is
//     therefore uncovered too: a rising crossing is bracketed by the same
//     two adjacent grid points as in the dense sweep, and find_root
//     evaluates both ends itself. Inside a pass the sweep steps densely.

namespace oaq {

namespace {

/// Slack of both prunes, radians. A computed margin differs from the
/// exact geometric one by rounding noise (~1e-13 rad even after 30 h of
/// accumulated anomaly); every skipped sample is proven at least this far
/// (the skip: twice this far) below the footprint edge, so its computed
/// margin is still <= 0 and the dense sweep would have seen no sign
/// change there either.
constexpr double kPruneSlackRad = 1e-9;

/// Samples evaluated per batched coverage_margins call inside a pass. A
/// centerline transit spans 64 samples; 16 keeps the overshoot past a
/// pass end small.
constexpr std::size_t kPassRun = 16;

/// min |A·sin Δ + B| over Δ ∈ [lo, hi]. Between consecutive critical
/// points (Δ = π/2 + kπ) the function is monotone, so the minimum of |·|
/// over the interval is 0 if the values at the endpoints and interior
/// critical points change sign, and their smallest magnitude otherwise.
double min_abs_sinusoid(double a, double b, double lo, double hi) {
  if (hi - lo >= 2.0 * kPi) return std::max(0.0, std::abs(b) - std::abs(a));
  const double f_lo = a * std::sin(lo) + b;
  const double f_hi = a * std::sin(hi) + b;
  double vmin = std::min(f_lo, f_hi);
  double vmax = std::max(f_lo, f_hi);
  // Interior critical points π/2 + kπ, where sin Δ = (−1)^k.
  for (double k = std::ceil((lo - kPi / 2.0) / kPi);
       kPi / 2.0 + k * kPi < hi; k += 1.0) {
    const double v = (std::fmod(std::abs(k), 2.0) == 0.0 ? a : -a) + b;
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  if (vmin <= 0.0 && vmax >= 0.0) return 0.0;
  return std::min(std::abs(vmin), std::abs(vmax));
}

/// Upper bound (rad/s) on how fast a satellite's central angle to a fixed
/// target can change: the fastest true-anomaly rate (at perigee, with the
/// J2-corrected mean motion), plus the apsidal and nodal drift of the
/// plane, plus the Earth rate when targets rotate; inflated by 1e-6 so
/// the bound survives its own rounding.
double central_angle_rate_bound(const Orbit& orbit, bool earth_rotation) {
  const double e = orbit.elements().eccentricity;
  double mean_rate = orbit.mean_motion_rad_s();
  double drift = 0.0;
  if (orbit.j2_enabled()) {
    const Orbit::SecularRates r = orbit.j2_secular_rates();
    mean_rate += std::abs(r.mean_anomaly_rate);
    drift = std::abs(r.raan_rate) + std::abs(r.arg_perigee_rate);
  }
  const double perigee_gain =
      (1.0 + e) * (1.0 + e) / std::pow(1.0 - e * e, 1.5);
  const double spin = earth_rotation ? kEarthRotationRadPerS : 0.0;
  return (mean_rate * perigee_gain + drift + spin) * (1.0 + 1e-6);
}

}  // namespace

PassPredictor::PassPredictor(const Constellation& constellation,
                             bool earth_rotation)
    : constellation_(&constellation), earth_rotation_(earth_rotation) {}

bool PassPredictor::plane_out_of_reach(int plane_index, const GeoPoint& target,
                                       Duration t0, Duration t1) const {
  const auto& plane = constellation_->plane(plane_index);
  if (plane.active_count() == 0) return true;
  const double psi =
      constellation_->footprint_of_plane(plane_index).angular_radius_rad();
  if (psi >= kPi / 2.0) return false;
  // A satellite's direction stays on its plane's great circle, so its
  // central angle to the target is at least asin|n·û| for the plane
  // normal n and target direction û, where
  //   n·û = sin i·cos φ·sin(Ω(t) − λ(t)) + cos i·sin φ
  // and the relative node angle Ω − λ drifts linearly: the J2 node rate,
  // minus the Earth rate when targets rotate with the Earth.
  const double a = std::sin(plane.inclination_rad()) * std::cos(target.lat_rad);
  const double b = std::cos(plane.inclination_rad()) * std::sin(target.lat_rad);
  const Orbit orbit = plane.orbit_of(0);
  double rate = orbit.j2_enabled() ? orbit.j2_secular_rates().raan_rate : 0.0;
  if (earth_rotation_) rate -= kEarthRotationRadPerS;
  const double node = plane.raan_rad() - target.lon_rad;
  const double d0 = node + rate * t0.to_seconds();
  const double d1 = node + rate * t1.to_seconds();
  return min_abs_sinusoid(a, b, std::min(d0, d1), std::max(d0, d1)) >
         std::sin(psi) + kPruneSlackRad;
}

std::vector<Pass> PassPredictor::passes(const GeoPoint& target, Duration t0,
                                        Duration t1, Duration tol) const {
  OAQ_REQUIRE(t1 > t0, "pass horizon must be nonempty");
  OAQ_REQUIRE(tol > Duration::zero(), "tolerance must be positive");
  std::vector<Pass> result;

  // Sample grid, shared by consecutive planes with the same step. It
  // accumulates exactly like the dense reference sweep (t += step, clamped
  // to t1), so crossing brackets land on the same sample times; the sweep
  // below only skips grid points it can prove are uncovered.
  std::vector<double> times;
  double grid_step = -1.0;
  double run[kPassRun];

  for (int pi = 0; pi < constellation_->num_planes(); ++pi) {
    if (plane_out_of_reach(pi, target, t0, t1)) continue;
    const auto& plane = constellation_->plane(pi);
    // Per-plane footprint: shells differ in altitude and sensor half-angle
    // (single-shell constellations see the same fp/ψ as before).
    const auto& fp = constellation_->footprint_of_plane(pi);
    const double psi = fp.angular_radius_rad();
    // Every slot shares the plane's elements up to its phase (and the
    // plane has a slot 0: planes without active satellites are culled).
    const double rate_bound =
        central_angle_rate_bound(plane.orbit_of(0), earth_rotation_);
    // Sample interval: a footprint transit lasts Tc = θ·ψ/π; 64 samples per
    // transit reliably brackets every crossing.
    const Duration transit = fp.coverage_time(plane.period());
    const double step = (transit / 64.0).to_seconds();
    if (step != grid_step) {
      grid_step = step;
      times.clear();
      double t = t0.to_seconds();
      times.push_back(t);
      while (t < t1.to_seconds()) {
        t = std::min(t + step, t1.to_seconds());
        times.push_back(t);
      }
    }
    const std::size_t n = times.size();
    for (int slot = 0; slot < plane.active_count(); ++slot) {
      const BatchKepler batch(plane.orbit_of(slot));
      // Every margin — sweep samples and root refinement alike — goes
      // through the same batched kernel, whose 1-lane calls equal the same
      // lane of a full block; so each evaluated sample has exactly the
      // value the dense sweep gave it, and find_root's sign preconditions
      // can never be violated by a sweep/refine mismatch.
      auto margin = [&](double t_sec) {
        double m = 0.0;
        batch.coverage_margins(target, psi, earth_rotation_, &t_sec, 1, &m);
        return m;
      };

      // Invariant: `m` is the margin at times[i]. While it is positive the
      // sweep is inside a pass and steps densely; otherwise it jumps to the
      // first grid point the rate bound cannot prove uncovered, so every
      // rising crossing is still bracketed by two adjacent grid points.
      std::size_t i = 0;
      double m = margin(times[0]);
      double pass_start = m > 0.0 ? times[0] : -1.0;
      while (i + 1 < n) {
        if (m > 0.0) {
          const std::size_t len = std::min(kPassRun, n - 1 - i);
          batch.coverage_margins(target, psi, earth_rotation_, &times[i + 1],
                                 len, run);
          std::size_t k = 0;
          while (k < len && run[k] > 0.0) ++k;
          if (k == len) {
            i += len;
            m = run[len - 1];
            continue;
          }
          const double pass_end =
              find_root(margin, times[i + k], times[i + k + 1],
                        tol.to_seconds());
          OAQ_ENSURE(pass_start >= 0.0, "pass end without start");
          // A grazing pass can refine to an empty interval (start == end):
          // it covers no instant, so it is not a pass at all.
          if (pass_end > pass_start) {
            result.push_back({SatelliteId{pi, slot},
                              Duration::seconds(pass_start),
                              Duration::seconds(pass_end)});
          }
          pass_start = -1.0;
          i += k + 1;
          m = run[k];
          continue;
        }
        // Uncovered at times[i]: the margin climbs at most `rate_bound`
        // per second, so it stays <= -2·slack until `clear_until`.
        std::size_t j = i + 1;
        if (m < -2.0 * kPruneSlackRad) {
          const double clear_until =
              times[i] + (-m - 2.0 * kPruneSlackRad) / rate_bound;
          j = static_cast<std::size_t>(
              std::upper_bound(times.begin() + static_cast<std::ptrdiff_t>(j),
                               times.end(), clear_until) -
              times.begin());
          if (j == n) break;
        }
        m = margin(times[j]);
        if (m > 0.0) {
          pass_start = find_root(margin, times[j - 1], times[j],
                                 tol.to_seconds());
        }
        i = j;
      }
      if (pass_start >= 0.0 && m > 0.0) {
        // Still covered at the end of the horizon.
        result.push_back({SatelliteId{pi, slot}, Duration::seconds(pass_start),
                          t1});
      }
    }
  }

  std::sort(result.begin(), result.end(), [](const Pass& a, const Pass& b) {
    return a.start < b.start;
  });
  return result;
}

std::vector<CoverageSegment> PassPredictor::multiplicity_timeline(
    const std::vector<Pass>& passes, Duration t0, Duration t1) {
  OAQ_REQUIRE(t1 > t0, "timeline horizon must be nonempty");
  // Sweep over pass boundaries.
  struct Event {
    Duration at;
    bool enter;
    SatelliteId sat;
  };
  std::vector<Event> events;
  events.reserve(passes.size() * 2);
  for (const auto& p : passes) {
    const Duration s = std::max(p.start, t0);
    const Duration e = std::min(p.end, t1);
    if (e <= s) continue;
    events.push_back({s, true, p.satellite});
    events.push_back({e, false, p.satellite});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.enter < b.enter;  // process exits before entries at equal times
  });

  std::vector<CoverageSegment> timeline;
  std::vector<SatelliteId> current;
  Duration cursor = t0;
  auto emit = [&](Duration upto) {
    if (upto > cursor) {
      timeline.push_back({cursor, upto, current});
      cursor = upto;
    }
  };
  for (const auto& ev : events) {
    emit(ev.at);
    if (ev.enter) {
      current.push_back(ev.sat);
    } else {
      current.erase(std::remove(current.begin(), current.end(), ev.sat),
                    current.end());
    }
  }
  emit(t1);
  return timeline;
}

CoverageStats PassPredictor::summarize(
    const std::vector<CoverageSegment>& timeline) {
  CoverageStats stats;
  for (const auto& seg : timeline) {
    const Duration d = seg.duration();
    stats.horizon += d;
    switch (seg.multiplicity()) {
      case 0:
        stats.uncovered += d;
        stats.longest_gap = std::max(stats.longest_gap, d);
        break;
      case 1:
        stats.single += d;
        stats.longest_single_pass = std::max(stats.longest_single_pass, d);
        break;
      default:
        stats.multiple += d;
        break;
    }
    stats.max_multiplicity = std::max(stats.max_multiplicity, seg.multiplicity());
  }
  return stats;
}

}  // namespace oaq
