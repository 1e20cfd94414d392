#include "orbit/visibility_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace oaq {
namespace {

/// splitmix64 finalizer — a fast, well-distributed 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t VisibilityKeyHash::operator()(const VisibilityKey& k) const {
  std::uint64_t h = mix64(k.lat);
  h = mix64(h ^ k.lon);
  h = mix64(h ^ k.t0);
  h = mix64(h ^ k.t1);
  return static_cast<std::size_t>(h);
}

VisibilityKey make_visibility_key(const GeoPoint& target, Duration t0,
                                  Duration t1) {
  return VisibilityKey{std::bit_cast<std::uint64_t>(target.lat_rad),
                       std::bit_cast<std::uint64_t>(target.lon_rad),
                       std::bit_cast<std::uint64_t>(t0.to_seconds()),
                       std::bit_cast<std::uint64_t>(t1.to_seconds())};
}

VisibilityCache::VisibilityCache(const Constellation& constellation,
                                 bool earth_rotation, Options options)
    : constellation_(&constellation),
      earth_rotation_(earth_rotation),
      options_(options),
      predictor_(constellation, earth_rotation) {
  OAQ_REQUIRE(options.tol > Duration::zero(), "tolerance must be positive");
  OAQ_REQUIRE(options.window_quantum > Duration::zero(),
              "window quantum must be positive");
}

const std::vector<Pass>& VisibilityCache::passes(const GeoPoint& target,
                                                 Duration t0, Duration t1) {
  ++stats_.pass_queries;
  const VisibilityKey key = make_visibility_key(target, t0, t1);
  const auto it = pass_cache_.find(key);
  if (it != pass_cache_.end()) {
    ++stats_.pass_hits;
    return it->second;
  }
  return pass_cache_
      .emplace(key, predictor_.passes(target, t0, t1, options_.tol))
      .first->second;
}

std::vector<Pass> VisibilityCache::passes_window(const GeoPoint& target,
                                                 Duration from, Duration to) {
  std::vector<Pass> out;
  passes_window_into(target, from, to, out);
  return out;
}

void VisibilityCache::passes_window_into(const GeoPoint& target,
                                         Duration from, Duration to,
                                         std::vector<Pass>& out) {
  OAQ_REQUIRE(to > from, "pass window must be nonempty");
  out.clear();
  const Duration f = std::max(from, Duration::zero());
  if (to <= f) return;
  const double q = options_.window_quantum.to_seconds();
  const Duration q_from =
      Duration::seconds(std::floor(f.to_seconds() / q) * q);
  const Duration q_to = Duration::seconds(std::ceil(to.to_seconds() / q) * q);
  const std::vector<Pass>& all = passes(target, q_from, q_to);
  for (const Pass& p : all) {
    if (p.end <= f || p.start >= to) continue;
    out.push_back({p.satellite, std::max(p.start, f), std::min(p.end, to)});
  }
}

}  // namespace oaq
