// Cross-shard shared visibility cache (ISSUE 4 tentpole).
//
// VisibilityCache is deliberately single-threaded: every Monte-Carlo shard
// builds its own and recomputes the same (target, window) pass sweeps — at
// 64 episode shards the identical sweep can run 64×. SharedVisibilityCache
// is the cross-shard replacement, built around a two-phase protocol:
//
//   1. SEED (writable): seed_window() computes quantum-aligned enclosing
//      windows compute-if-absent under striped locks. Thread-safe; the
//      engines run it on the calling thread through the parallel_reduce
//      seed/freeze hook before workers fan out, so the common windows are
//      paid for exactly once per run instead of once per shard.
//   2. FROZEN (read-mostly): freeze() consolidates the stripes into one
//      immutable map that every shard then queries lock-free — and, via
//      passes_window_into(), allocation-free in the steady state. Each
//      entry keeps the running maximum of its pass ends, so a query
//      binary-searches its first candidate pass and stops at the first
//      pass starting after the window instead of clipping every pass.
//      Queries whose quantized window was not seeded fall back to
//      per-stripe overflow maps (compute-once under the stripe lock).
//
// Determinism: every cached value is a pure function of its key — the
// PassPredictor output for the quantized window — so query results never
// depend on which thread computed an entry or in what order. Per-shard hit
// counters stay deterministic too: a query counts as a hit iff its key is
// in the frozen map, a set fixed at freeze(), never on overflow-map state
// (overflow queries always count as misses, even when another shard has
// already computed the entry).
//
// Synchronization contract: all seed_window() calls must happen-before
// freeze() (join the seeding threads first); queries require frozen().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "orbit/visibility_cache.hpp"

namespace oaq {

/// Seed-then-freeze pass cache shared by all shards of a parallel run.
class SharedVisibilityCache {
 public:
  using Options = VisibilityCacheOptions;

  explicit SharedVisibilityCache(const Constellation& constellation,
                                 bool earth_rotation = false,
                                 Options options = {});

  /// Seed phase: compute (if absent) the quantum-aligned window enclosing
  /// [from, to] — the same quantization passes_window() uses, so a later
  /// query with these bounds is guaranteed a frozen-map hit. Thread-safe;
  /// must not race with freeze().
  void seed_window(const GeoPoint& target, Duration from, Duration to);

  /// Seed many targets' windows, fanning the per-target Kepler sweeps
  /// across the global thread pool with at most `jobs` concurrent
  /// executors (0 = auto; the caller participates). Blocks until every
  /// sweep completed, so all seeds still happen-before a subsequent
  /// freeze() — the barrier the two-phase protocol requires. Returns the
  /// executor count actually used (1 = ran serially); cached entries are
  /// pure functions of their keys, so the result set is identical for any
  /// value.
  int seed_windows(const std::vector<GeoPoint>& targets, Duration from,
                   Duration to, int jobs = 0);

  /// Consolidate seeded entries into the immutable lock-free map and enter
  /// the frozen phase. Call exactly once, after all seeders have joined.
  void freeze();

  [[nodiscard]] bool frozen() const {
    return frozen_.load(std::memory_order_acquire);
  }

  /// Frozen phase: passes intersecting [from, to] (negative `from` clamped
  /// to 0), clipped to the window — same values, same quantization as
  /// VisibilityCache::passes_window. Appends nothing on an empty window.
  /// Steady state (frozen-map hit, `out` capacity reused) performs no
  /// allocation. `stats` (optional, per-shard) counts one pass query and,
  /// on a frozen-map hit, one pass hit.
  void passes_window_into(const GeoPoint& target, Duration from, Duration to,
                          std::vector<Pass>& out,
                          VisibilityCacheStats* stats = nullptr) const;

  /// Convenience wrapper over passes_window_into for non-hot-path callers.
  [[nodiscard]] std::vector<Pass> passes_window(
      const GeoPoint& target, Duration from, Duration to,
      VisibilityCacheStats* stats = nullptr) const;

  [[nodiscard]] const Constellation* constellation() const {
    return constellation_;
  }
  [[nodiscard]] bool earth_rotation() const { return earth_rotation_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Entries consolidated at freeze(); requires frozen().
  [[nodiscard]] std::size_t frozen_entries() const;
  /// Entries computed on the post-freeze miss path (locks the stripes).
  [[nodiscard]] std::size_t overflow_entries() const;
  /// Windows actually computed by seed_window (excludes seed-phase dedup).
  [[nodiscard]] std::uint64_t seed_computes() const {
    return seed_computes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 16;

  /// One cached window: its passes (sorted by start, as PassPredictor
  /// returns them) and, per position, the latest end among the passes up
  /// to it. That running maximum is non-decreasing, so a query binary-
  /// searches the first pass that can still end after the request start
  /// and stops at the first pass starting at or after the request end.
  struct Entry {
    std::vector<Pass> passes;
    std::vector<Duration> reach;
  };
  using EntryMap =
      std::unordered_map<VisibilityKey, Entry, VisibilityKeyHash>;

  struct Stripe {
    mutable std::mutex mu;
    EntryMap map;
  };

  [[nodiscard]] Entry compute(const GeoPoint& target, Duration from,
                              Duration to) const;
  /// Passes of `entry` intersecting (f, to), clipped to that window.
  static void append_clipped(const Entry& entry, Duration f, Duration to,
                             std::vector<Pass>& out);

  [[nodiscard]] Stripe& stripe_of(const VisibilityKey& key) const {
    return stripes_[VisibilityKeyHash{}(key) % kStripes];
  }

  const Constellation* constellation_;
  bool earth_rotation_;
  Options options_;
  PassPredictor predictor_;
  /// Seed-phase entries before freeze(); overflow entries after.
  mutable std::array<Stripe, kStripes> stripes_;
  EntryMap frozen_map_;
  std::atomic<bool> frozen_{false};
  std::atomic<std::uint64_t> seed_computes_{0};
  mutable std::atomic<std::uint64_t> overflow_computes_{0};
};

}  // namespace oaq
