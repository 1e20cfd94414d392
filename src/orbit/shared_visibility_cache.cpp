#include "orbit/shared_visibility_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

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
  OAQ_REQUIRE(!frozen(), "seed_window after freeze");
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  const VisibilityKey key = make_visibility_key(target, w.q_from, w.q_to);
  Stripe& s = stripe_of(key);
  // The stripe lock is held across the compute: a concurrent seeder of the
  // SAME window blocks instead of duplicating the sweep, which is the
  // whole point of seeding. Distinct windows usually land on distinct
  // stripes and proceed in parallel.
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto [it, inserted] = s.map.try_emplace(key);
  if (inserted) {
    it->second = compute(target, w.q_from, w.q_to);
    seed_computes_.fetch_add(1, std::memory_order_relaxed);
  }
}

int SharedVisibilityCache::seed_windows(const std::vector<GeoPoint>& targets,
                                        Duration from, Duration to, int jobs) {
  OAQ_REQUIRE(!frozen(), "seed_windows after freeze");
  if (targets.empty()) return 0;
  const int n = static_cast<int>(targets.size());
  const int executors = std::min(resolve_jobs(jobs), n);
  if (executors <= 1) {
    for (const GeoPoint& target : targets) seed_window(target, from, to);
    return 1;
  }
  // One shard per target: each sweep is Kepler-heavy and seed_window is
  // striped-lock thread-safe, so target granularity balances well without
  // oversubscribing the stripes. for_each_shard joins every executor
  // before returning, preserving the seeds-happen-before-freeze contract.
  ThreadPool::global().for_each_shard(n, executors, [&](int i) {
    seed_window(targets[static_cast<std::size_t>(i)], from, to);
  });
  return executors;
}

void SharedVisibilityCache::freeze() {
  OAQ_REQUIRE(!frozen(), "freeze called twice");
  for (Stripe& s : stripes_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    frozen_map_.merge(s.map);
    s.map.clear();
  }
  frozen_.store(true, std::memory_order_release);
}

void SharedVisibilityCache::passes_window_into(const GeoPoint& target,
                                               Duration from, Duration to,
                                               std::vector<Pass>& out,
                                               VisibilityCacheStats* stats)
    const {
  OAQ_REQUIRE(frozen(), "passes_window before freeze");
  out.clear();
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  if (stats != nullptr) ++stats->pass_queries;
  const VisibilityKey key = make_visibility_key(target, w.q_from, w.q_to);
  const auto it = frozen_map_.find(key);
  if (it != frozen_map_.end()) {
    if (stats != nullptr) ++stats->pass_hits;
    append_clipped(it->second, w.f, to, out);
    return;
  }
  // Overflow: an un-seeded window. Compute-once under the stripe lock; the
  // value is a pure function of the key, so whichever shard computes it the
  // entry is identical. Deliberately NOT a stats hit even when present —
  // hit counts must not depend on cross-shard timing.
  Stripe& s = stripe_of(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto [oit, inserted] = s.map.try_emplace(key);
  if (inserted) {
    oit->second = compute(target, w.q_from, w.q_to);
    overflow_computes_.fetch_add(1, std::memory_order_relaxed);
  }
  append_clipped(oit->second, w.f, to, out);
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
  OAQ_REQUIRE(frozen(), "frozen_entries before freeze");
  return frozen_map_.size();
}

std::size_t SharedVisibilityCache::overflow_entries() const {
  std::size_t n = 0;
  for (const Stripe& s : stripes_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

}  // namespace oaq
