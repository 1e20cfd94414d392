// Paired A/B wall-clock overhead, the measurement behind the benches'
// <= 5% overhead gates (fault_storm, span_overhead, chaos_soak) and
// geometry_batch's >= 2x margin-sweep speedup gate.
//
// A pair runs the baseline and the variant `reps` times each, alternating
// run by run (and which goes first), and sums each side's wall clock;
// `reps` doubles until the baseline side of a pair lasts at least 1 s.
// The pair yields the ratio variant / baseline. Drift slower than one run
// (CPU frequency, other load) hits both sides of a pair alike, and the
// median of the pair ratios ignores the few pairs a burst of load lands
// in; the interquartile range of the ratios shows how widely the pairs
// scatter. On a shared 4-vCPU VM, 1 s sides put the IQR at ~2 points;
// 0.2-0.5 s sides left it at 3-7 points.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace oaq::bench {

struct OverheadAb {
  int pairs = 0;
  int reps = 0;             ///< workload runs per side of a pair
  double baseline_s = 0.0;  ///< median baseline wall per run
  double variant_s = 0.0;   ///< median variant wall per run
  double median = 0.0;      ///< median of the variant / baseline ratios
  double q1 = 0.0;          ///< first quartile of the ratios
  double q3 = 0.0;          ///< third quartile of the ratios

  /// Fractional overhead of the variant: median ratio − 1.
  [[nodiscard]] double overhead() const { return median - 1.0; }
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

/// Linearly interpolated quantile of an ascending, non-empty sample.
inline double sorted_quantile(const std::vector<double>& xs, double q) {
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline OverheadAb measure_overhead(const std::function<void()>& baseline,
                                   const std::function<void()>& variant) {
  constexpr int kPairs = 11;
  constexpr double kMinSideS = 1.0;
  using Clock = std::chrono::steady_clock;
  const auto timed = [](const std::function<void()>& run) {
    const auto t0 = Clock::now();
    run();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // One pair: baseline and variant wall clock, summed over `reps` runs.
  long turn = 0;  // alternates which side runs first, across pairs too
  const auto pair = [&](int reps, double& b, double& v) {
    b = v = 0.0;
    for (int r = 0; r < reps; ++r) {
      if (turn++ % 2 == 0) {
        b += timed(baseline);
        v += timed(variant);
      } else {
        v += timed(variant);
        b += timed(baseline);
      }
    }
  };
  // Untimed warm-up: page faults, allocator growth, frequency ramp-up.
  baseline();
  variant();

  OverheadAb out;
  out.pairs = kPairs;
  out.reps = 1;
  double b = 0.0, v = 0.0;
  for (pair(out.reps, b, v); b < kMinSideS; pair(out.reps, b, v)) {
    out.reps *= 2;
  }

  std::vector<double> ratios, base, var;
  for (int p = 0; p < kPairs; ++p) {
    pair(out.reps, b, v);
    ratios.push_back(v / b);
    base.push_back(b / out.reps);
    var.push_back(v / out.reps);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(base.begin(), base.end());
  std::sort(var.begin(), var.end());
  out.median = sorted_quantile(ratios, 0.5);
  out.q1 = sorted_quantile(ratios, 0.25);
  out.q3 = sorted_quantile(ratios, 0.75);
  out.baseline_s = sorted_quantile(base, 0.5);
  out.variant_s = sorted_quantile(var, 0.5);
  return out;
}

}  // namespace oaq::bench
