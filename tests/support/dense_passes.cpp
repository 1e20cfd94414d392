#include "dense_passes.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "orbit/batch_kepler.hpp"

namespace oaq {

std::vector<Pass> dense_passes(const Constellation& constellation,
                               bool earth_rotation, const GeoPoint& target,
                               Duration t0, Duration t1, Duration tol) {
  OAQ_REQUIRE(t1 > t0, "pass horizon must be nonempty");
  OAQ_REQUIRE(tol > Duration::zero(), "tolerance must be positive");
  std::vector<Pass> result;
  std::vector<double> times;
  std::vector<double> margins;

  for (int pi = 0; pi < constellation.num_planes(); ++pi) {
    const auto& plane = constellation.plane(pi);
    const auto& fp = constellation.footprint_of_plane(pi);
    const double psi = fp.angular_radius_rad();
    const Duration transit = fp.coverage_time(plane.period());
    const Duration step = transit / 64.0;
    times.clear();
    {
      double t = t0.to_seconds();
      times.push_back(t);
      while (t < t1.to_seconds()) {
        t = std::min(t + step.to_seconds(), t1.to_seconds());
        times.push_back(t);
      }
    }
    for (int slot = 0; slot < plane.active_count(); ++slot) {
      const BatchKepler batch(plane.orbit_of(slot));
      auto margin = [&](double t_sec) {
        double m = 0.0;
        batch.coverage_margins(target, psi, earth_rotation, &t_sec, 1, &m);
        return m;
      };

      margins.resize(times.size());
      batch.coverage_margins(target, psi, earth_rotation, times.data(),
                             times.size(), margins.data());

      double m_prev = margins[0];
      double pass_start = m_prev > 0.0 ? times[0] : -1.0;
      for (std::size_t i = 1; i < times.size(); ++i) {
        const double t = times[i - 1];
        const double t_next = times[i];
        const double m_next = margins[i];
        if (m_prev <= 0.0 && m_next > 0.0) {
          pass_start = find_root(margin, t, t_next, tol.to_seconds());
        } else if (m_prev > 0.0 && m_next <= 0.0) {
          const double pass_end = find_root(margin, t, t_next, tol.to_seconds());
          OAQ_ENSURE(pass_start >= 0.0, "pass end without start");
          if (pass_end > pass_start) {
            result.push_back({SatelliteId{pi, slot},
                              Duration::seconds(pass_start),
                              Duration::seconds(pass_end)});
          }
          pass_start = -1.0;
        }
        m_prev = m_next;
      }
      if (pass_start >= 0.0 && m_prev > 0.0) {
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

}  // namespace oaq
