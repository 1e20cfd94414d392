#include "oaq/batch_episode.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace oaq {

bool analytic_signal_detected(const PlaneGeometry& geometry, int k,
                              Duration phase, TimePoint signal_start,
                              Duration signal_duration, Duration tau) {
  const Duration sig_start = signal_start.since_origin();
  const Duration sig_end = sig_start + signal_duration;
  // The exact pass horizon TargetEpisode::arm() queries.
  const Duration from = sig_start - Duration::minutes(20);
  const Duration to = sig_start +
                      std::min(signal_duration, Duration::minutes(30)) + tau +
                      Duration::minutes(60);
  const Duration tr = geometry.tr(k);
  const Duration tc = geometry.tc();
  // Same enumeration — and the same floating-point expressions — as
  // AnalyticSchedule::passes_into, without materializing the pass list.
  const double from_c = (from - tc / 2.0 - phase) / tr;
  const double to_c = (to + tc / 2.0 - phase) / tr;
  for (long j = static_cast<long>(std::floor(from_c));
       j <= static_cast<long>(std::ceil(to_c)); ++j) {
    const Duration center = phase + tr * static_cast<double>(j);
    const Duration start = center - tc / 2.0;
    const Duration end = center + tc / 2.0;
    if (end < from || start > to) continue;
    // Passes arrive in ascending start order, so arm()'s two scans (any
    // covering pass, else the first pass at/after the signal start)
    // collapse into one: a pass covering the signal start decides armed;
    // past the signal start, the first surviving pass decides by
    // aliveness — later passes can neither cover nor come earlier.
    if (start <= sig_start && sig_start < end) return true;
    if (start >= sig_start) return start < sig_end;
  }
  return false;
}

namespace {

/// The k slots of the analytic plane — every satellite a lane may touch.
std::vector<SatelliteId> plane_slots(int k) {
  std::vector<SatelliteId> slots;
  for (int slot = 0; slot < k; ++slot) slots.push_back({0, slot});
  return slots;
}

}  // namespace

BatchEpisodeEngine::BatchEpisodeEngine(PlaneGeometry geometry, int k,
                                       const ProtocolConfig& cfg,
                                       bool opportunity_adaptive,
                                       const DurationDistribution& duration_law,
                                       Rng episode_rng, TimePoint signal_start,
                                       const FaultPlan* plan, int)
    : geometry_(geometry),
      k_(k),
      tau_(cfg.tau),
      duration_law_(&duration_law),
      episode_rng_(episode_rng),
      signal_start_(signal_start),
      schedule_(geometry_, k_, Duration::zero()),
      runner_(schedule_, plane_slots(k), cfg, opportunity_adaptive, plan) {}

bool BatchEpisodeEngine::lane_detects(Duration phase, Duration duration) const {
  return analytic_signal_detected(geometry_, k_, phase, signal_start_,
                                  duration, tau_);
}

void BatchEpisodeEngine::run(std::int64_t begin, std::int64_t end,
                             ShardTraceBuffer* trace,
                             InvariantChecker* invariants,
                             const ResultSink& sink, SpanArena* spans,
                             EpisodeLedger* ledger) {
  OAQ_REQUIRE(begin <= end, "episode range must be nondecreasing");
  const Duration tr = geometry_.tr(k_);
  // Block spans are recorded retroactively with shared boundary
  // timestamps: one clock read ends a block's "drain" AND starts the next
  // block's "prologue", and the mid read splits the two — two reads per
  // block instead of four, which is what keeps the profiler inside its
  // <= 5% overhead gate (bench/span_overhead). Per-lane spans would cost
  // two reads per episode; block granularity loses nothing because the
  // export aggregates by call path anyway.
  auto t_block = spans != nullptr ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  for (std::int64_t b = begin; b < end; b += kEpisodeBatchWidth) {
    const int n =
        static_cast<int>(std::min<std::int64_t>(kEpisodeBatchWidth, end - b));
    // SoA prologue: sample every lane's phase and duration from the
    // per-index forks the oracle draws, then classify closed-form.
    int armed = 0;
    for (int i = 0; i < n; ++i) {
      const Rng ep = episode_rng_.fork(static_cast<std::uint64_t>(b + i));
      Rng phase_rng = ep.fork(1);
      Rng duration_rng = ep.fork(2);
      lane_phase_[i] = phase_rng.uniform(Duration::zero(), tr);
      lane_duration_[i] = duration_law_->sample(duration_rng);
      lane_armed_[i] = lane_detects(lane_phase_[i], lane_duration_[i]);
      armed += lane_armed_[i] ? 1 : 0;
    }
    if (spans != nullptr) {
      const auto t_mid = std::chrono::steady_clock::now();
      spans->enter_at("prologue", t_block);
      spans->add_items(n);
      spans->exit_at(t_mid);
      t_block = t_mid;  // the drain span opens here, closed below
    }
    ++stats_.batches;
    stats_.episodes += static_cast<std::uint64_t>(n);
    stats_.des_lanes += static_cast<std::uint64_t>(armed);
    stats_.escaped += static_cast<std::uint64_t>(n - armed);
    if (n == kEpisodeBatchWidth) ++stats_.occupancy[armed];
    // Retirement in episode order: escaped lanes compact out immediately
    // (the failed-arm result is the default), armed lanes drain one at a
    // time through the shard's arena — so the trace stream and
    // observation order are identical to the oracle's. arm() stays the
    // authority: a lane the classifier arms but arm() rejects retires
    // with the same default result, having touched nothing observable.
    for (int i = 0; i < n; ++i) {
      const std::int64_t e = b + i;
      if (!lane_armed_[i]) {
        sink(e, escaped_result_);
        continue;
      }
      schedule_ = AnalyticSchedule(geometry_, k_, lane_phase_[i]);
      const Rng ep = episode_rng_.fork(static_cast<std::uint64_t>(e));
      sink(e, runner_.run_episode(e, ep.fork(3), signal_start_,
                                  lane_duration_[i], trace, invariants,
                                  ledger));
    }
    if (spans != nullptr) {
      const auto t_end = std::chrono::steady_clock::now();
      spans->enter_at("drain", t_block);
      spans->add_items(armed);
      spans->exit_at(t_end);
      t_block = t_end;
    }
  }
}

}  // namespace oaq
