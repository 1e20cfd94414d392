#include "orbit/shared_visibility_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace oaq {
namespace {

/// Quantized enclosing window — identical arithmetic to
/// VisibilityCache::passes_window, so the two caches key (and therefore
/// compute) exactly the same windows and return exactly the same clipped
/// passes for any request.
struct QuantizedWindow {
  Duration f;       ///< request start clamped to >= 0
  Duration q_from;  ///< window start rounded down to the quantum grid
  Duration q_to;    ///< window end rounded up to the quantum grid
  bool empty = false;
};

QuantizedWindow quantize(Duration from, Duration to, Duration quantum) {
  OAQ_REQUIRE(to > from, "pass window must be nonempty");
  QuantizedWindow w;
  w.f = std::max(from, Duration::zero());
  if (to <= w.f) {
    w.empty = true;
    return w;
  }
  const double q = quantum.to_seconds();
  w.q_from = Duration::seconds(std::floor(w.f.to_seconds() / q) * q);
  w.q_to = Duration::seconds(std::ceil(to.to_seconds() / q) * q);
  return w;
}

}  // namespace

SharedVisibilityCache::SharedVisibilityCache(const Constellation& constellation,
                                             bool earth_rotation,
                                             Options options)
    : constellation_(&constellation),
      earth_rotation_(earth_rotation),
      options_(options),
      predictor_(constellation, earth_rotation) {
  OAQ_REQUIRE(options.tol > Duration::zero(), "tolerance must be positive");
  OAQ_REQUIRE(options.window_quantum > Duration::zero(),
              "window quantum must be positive");
}

void SharedVisibilityCache::seed_window(const GeoPoint& target, Duration from,
                                        Duration to) {
  OAQ_REQUIRE(!frozen_, "seed_window after freeze");
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  const auto [it, inserted] =
      entries_.try_emplace(make_visibility_key(target, w.q_from, w.q_to));
  if (inserted) it->second = compute(target, w.q_from, w.q_to);
}

void SharedVisibilityCache::freeze() {
  OAQ_REQUIRE(!frozen_, "freeze called twice");
  frozen_ = true;
}

void SharedVisibilityCache::passes_window_into(const GeoPoint& target,
                                               Duration from, Duration to,
                                               std::vector<Pass>& out,
                                               VisibilityCacheStats* stats)
    const {
  OAQ_REQUIRE(frozen_, "passes_window before freeze");
  out.clear();
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  const auto it =
      entries_.find(make_visibility_key(target, w.q_from, w.q_to));
  OAQ_REQUIRE(it != entries_.end(), "pass window was not seeded");
  if (stats != nullptr) {
    ++stats->pass_queries;
    ++stats->pass_hits;
  }
  append_clipped(it->second, w.f, to, out);
}

SharedVisibilityCache::Entry SharedVisibilityCache::compute(
    const GeoPoint& target, Duration from, Duration to) const {
  Entry entry;
  entry.passes = predictor_.passes(target, from, to, options_.tol);
  entry.reach.reserve(entry.passes.size());
  for (const Pass& p : entry.passes) {
    entry.reach.push_back(
        entry.reach.empty() ? p.end : std::max(entry.reach.back(), p.end));
  }
  return entry;
}

void SharedVisibilityCache::append_clipped(const Entry& entry, Duration f,
                                           Duration to,
                                           std::vector<Pass>& out) {
  // Every pass before `first` ends by `f`; passes are sorted by start, so
  // the first one starting at or after `to` ends the scan. Same passes,
  // same order as testing every pass of the entry.
  const auto first = static_cast<std::size_t>(
      std::upper_bound(entry.reach.begin(), entry.reach.end(), f) -
      entry.reach.begin());
  for (std::size_t i = first; i < entry.passes.size(); ++i) {
    const Pass& p = entry.passes[i];
    if (p.start >= to) break;
    if (p.end <= f) continue;
    out.push_back({p.satellite, std::max(p.start, f), std::min(p.end, to)});
  }
}

std::vector<Pass> SharedVisibilityCache::passes_window(
    const GeoPoint& target, Duration from, Duration to,
    VisibilityCacheStats* stats) const {
  std::vector<Pass> out;
  passes_window_into(target, from, to, out, stats);
  return out;
}

std::size_t SharedVisibilityCache::frozen_entries() const {
  OAQ_REQUIRE(frozen_, "frozen_entries before freeze");
  return entries_.size();
}

}  // namespace oaq
