// Cross-shard shared visibility cache.
//
// VisibilityCache is deliberately single-threaded: every Monte-Carlo shard
// that built its own would recompute the same (target, window) pass sweep —
// at 64 episode shards the identical sweep would run 64×.
// SharedVisibilityCache is the cross-shard replacement, used in one pass:
//
//   1. SEED (single thread): seed_window() computes the quantum-aligned
//      window enclosing a request. The engines seed their one run-covering
//      window on the calling thread before any shard is dispatched.
//   2. FROZEN (read-only): freeze() ends seeding; every shard then queries
//      concurrently without locks — and, via passes_window_into(),
//      allocation-free in the steady state. Each entry keeps the running
//      maximum of its pass ends, so a query binary-searches its first
//      candidate pass and stops at the first pass starting after the
//      window instead of clipping every pass. A query whose quantized
//      window was not seeded is a precondition failure.
//
// Determinism: every cached value is a pure function of its key — the
// PassPredictor output for the quantized window — so query results never
// depend on which thread reads them. Every successful query is a hit.
//
// Synchronization contract: seed_window() and freeze() run on one thread
// and happen-before the readers start (the engines hand the frozen cache
// to the thread pool, whose queue mutex orders the two); queries require
// frozen().
#pragma once

#include <cstdint>
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
  /// query with these bounds is guaranteed a hit. Not thread-safe; must
  /// precede freeze().
  void seed_window(const GeoPoint& target, Duration from, Duration to);

  /// End the seed phase. Call exactly once, before any query.
  void freeze();

  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Frozen phase: passes intersecting [from, to] (negative `from` clamped
  /// to 0), clipped to the window — same values, same quantization as
  /// VisibilityCache::passes_window. Appends nothing on an empty window.
  /// The quantized window must have been seeded. Performs no allocation
  /// once `out` has the capacity. `stats` (optional, per-shard) counts one
  /// pass query and one pass hit.
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

  /// Windows seeded before freeze(); requires frozen().
  [[nodiscard]] std::size_t frozen_entries() const;

 private:
  /// One cached window: its passes (sorted by start, as PassPredictor
  /// returns them) and, per position, the latest end among the passes up
  /// to it. That running maximum is non-decreasing, so a query binary-
  /// searches the first pass that can still end after the request start
  /// and stops at the first pass starting at or after the request end.
  struct Entry {
    std::vector<Pass> passes;
    std::vector<Duration> reach;
  };

  [[nodiscard]] Entry compute(const GeoPoint& target, Duration from,
                              Duration to) const;
  /// Passes of `entry` intersecting (f, to), clipped to that window.
  static void append_clipped(const Entry& entry, Duration f, Duration to,
                             std::vector<Pass>& out);

  const Constellation* constellation_;
  bool earth_rotation_;
  Options options_;
  PassPredictor predictor_;
  std::unordered_map<VisibilityKey, Entry, VisibilityKeyHash> entries_;
  bool frozen_ = false;
};

}  // namespace oaq
