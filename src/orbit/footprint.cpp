#include "orbit/footprint.hpp"

#include "common/error.hpp"

namespace oaq {

FootprintModel::FootprintModel(double angular_radius_rad)
    : psi_(angular_radius_rad) {
  OAQ_REQUIRE(psi_ > 0.0 && psi_ <= kPi / 2.0,
              "footprint angular radius must be in (0, pi/2]");
}

FootprintModel FootprintModel::from_coverage_time(Duration coverage_time,
                                                  Duration period) {
  OAQ_REQUIRE(coverage_time > Duration::zero(), "coverage time must be positive");
  OAQ_REQUIRE(coverage_time < period,
              "coverage time must be shorter than the orbit period");
  return FootprintModel(kPi * (coverage_time / period));
}

Duration FootprintModel::coverage_time(Duration period) const {
  return period * (psi_ / kPi);
}

SphericalCap FootprintModel::cap_at(const GeoPoint& subsat) const {
  return SphericalCap(subsat, psi_);
}

bool FootprintModel::covers(const GeoPoint& subsat, const GeoPoint& p) const {
  return central_angle(subsat, p) <= psi_ + 1e-12;
}

}  // namespace oaq
