// SoA episode batching for the analytic Monte-Carlo path (DESIGN.md §12).
//
// Many analytic episodes are over before they start: the signal escapes
// surveillance entirely, and building or even resetting a DES context for
// them is pure overhead. BatchEpisodeEngine advances a shard's episodes
// in blocks of kEpisodeBatchWidth lanes:
//
//   1. Prologue (SoA): the per-lane phase and signal duration are sampled
//      into structure-of-arrays lanes from the per-index RNG streams
//      (episode_rng.fork(e) → fork(1)/fork(2)), and each lane is
//      classified closed-form against the analytic timing diagram: will
//      the signal be detected at all? The classification mirrors
//      TargetEpisode::arm() expression by expression, so it is bit-exact
//      against arm()'s decision.
//   2. Escaped lanes retire immediately with a default EpisodeResult — the
//      exact value EpisodeEngine::run returns for a failed arm — and never
//      touch the DES.
//   3. Armed lanes drain one at a time, in episode order, through the
//      shard's PooledEpisodeRunner over the engine's AnalyticSchedule,
//      which is reassigned to the lane's phase before each drain.
//
// Determinism: every random stream is the fork the test-side scalar
// oracle uses (ep.fork(3) protocol noise, .fork(0x6e6574) network,
// .fork(0x666c74) injector), DES event order is a pure function of
// (time, sequence) — never of recycled slab slots — and the closed-form
// escape test is a false-positive-safe mirror of arm() (a lane the
// classifier arms but arm() rejects still retires with the default
// result). Lanes retire in strictly increasing episode order, so the
// trace stream, metric observation order, ledger rows, and span trees are
// byte-identical to the oracle at any job count.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/distribution.hpp"
#include "common/rng.hpp"
#include "oaq/episode.hpp"
#include "oaq/pooled_episode.hpp"
#include "oaq/schedule.hpp"
#include "obs/span.hpp"

namespace oaq {

class FaultPlan;         // src/fault/plan.hpp
class InvariantChecker;  // src/fault/invariants.hpp

/// Closed-form mirror of TargetEpisode::arm()'s detection decision for the
/// analytic schedule: true iff a signal starting at `signal_start` with the
/// given duration is detected under pass phase `phase` — the same horizon,
/// the same pass enumeration, and the same floating-point expressions as
/// arm(), with no pass list materialized. Used by the batch engine's escape
/// prologue and the campaign's arrival pre-screen.
[[nodiscard]] bool analytic_signal_detected(const PlaneGeometry& geometry,
                                            int k, Duration phase,
                                            TimePoint signal_start,
                                            Duration signal_duration,
                                            Duration tau);

/// Lanes advanced per prologue block. Eight keeps the SoA arrays inside a
/// cache line per field and matches the occupancy histogram granularity.
inline constexpr int kEpisodeBatchWidth = 8;

/// Occupancy and throughput counters of one engine's batched run. Pure
/// functions of the episode index range and the configuration, so shard
/// merges are deterministic; exported as the gated sim.batch.* metrics.
struct BatchEpisodeStats {
  std::uint64_t batches = 0;    ///< prologue blocks processed
  std::uint64_t episodes = 0;   ///< total lanes (escaped + drained)
  std::uint64_t escaped = 0;    ///< retired closed-form, DES skipped
  std::uint64_t des_lanes = 0;  ///< lanes drained through the DES arena
  /// Histogram of armed lanes per full-width block (index = armed count).
  std::array<std::uint64_t, kEpisodeBatchWidth + 1> occupancy{};

  void merge(const BatchEpisodeStats& other) {
    batches += other.batches;
    episodes += other.episodes;
    escaped += other.escaped;
    des_lanes += other.des_lanes;
    for (std::size_t i = 0; i < occupancy.size(); ++i) {
      occupancy[i] += other.occupancy[i];
    }
  }
};

/// Per-shard batched episode engine for the analytic schedule. Construct
/// one per shard (its arena is single-threaded state) and feed it the
/// shard's contiguous episode index range.
class BatchEpisodeEngine {
 public:
  /// Receives every episode's result in strictly increasing episode order —
  /// the same (index, result) sequence the scalar oracle produces. The
  /// reference is valid only during the call.
  using ResultSink = std::function<void(std::int64_t, const EpisodeResult&)>;

  /// `episode_rng` is simulate_qos's master.fork(3) stream; `duration_law`
  /// and `plan` (nullable; an empty plan is treated as none) must outlive
  /// the engine. All episodes share `signal_start` — the phase is the
  /// randomized quantity (PASTA). The trailing int is unread; it stays
  /// only so existing callers that pass an interleave width still compile.
  BatchEpisodeEngine(PlaneGeometry geometry, int k, const ProtocolConfig& cfg,
                     bool opportunity_adaptive,
                     const DurationDistribution& duration_law,
                     Rng episode_rng, TimePoint signal_start,
                     const FaultPlan* plan, int /*interleave_width*/ = 0);

  BatchEpisodeEngine(const BatchEpisodeEngine&) = delete;
  BatchEpisodeEngine& operator=(const BatchEpisodeEngine&) = delete;

  /// Run episodes [begin, end) and deliver each result to `sink` in order.
  /// `trace` (nullable) receives the shard's protocol events; `invariants`
  /// (nullable) audits every drained episode; `spans` (nullable) records
  /// one "prologue" span per block (items = lanes classified) and one
  /// "drain" span per block (items = armed lanes) — block granularity
  /// keeps the profiler inside its <= 5% overhead gate
  /// (bench/span_overhead); `ledger` (nullable) receives every final
  /// drop, retry, and fault activation under the owning lane's episode id.
  void run(std::int64_t begin, std::int64_t end, ShardTraceBuffer* trace,
           InvariantChecker* invariants, const ResultSink& sink,
           SpanArena* spans = nullptr, EpisodeLedger* ledger = nullptr);

  [[nodiscard]] const BatchEpisodeStats& stats() const { return stats_; }

 private:
  /// Closed-form mirror of TargetEpisode::arm()'s detection decision for
  /// the analytic schedule — same window, same pass enumeration, same
  /// floating-point expressions, no materialized pass list.
  [[nodiscard]] bool lane_detects(Duration phase, Duration duration) const;

  PlaneGeometry geometry_;
  int k_;
  Duration tau_;
  const DurationDistribution* duration_law_;
  Rng episode_rng_;
  TimePoint signal_start_;

  /// The lane's pass pattern, reassigned per armed lane (the phase is the
  /// randomized quantity). Declared before runner_, which reads it.
  AnalyticSchedule schedule_;
  PooledEpisodeRunner runner_;

  // SoA prologue lanes.
  std::array<Duration, kEpisodeBatchWidth> lane_phase_{};
  std::array<Duration, kEpisodeBatchWidth> lane_duration_{};
  std::array<bool, kEpisodeBatchWidth> lane_armed_{};

  /// Retirement value of an escaped lane (EpisodeEngine::run's failed arm).
  const EpisodeResult escaped_result_{};

  BatchEpisodeStats stats_;
};

}  // namespace oaq
