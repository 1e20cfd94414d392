// The dense pass sweep: PassPredictor::passes without its pruning.
//
// PassPredictor skips planes that provably never reach the target and
// grid samples that provably lie outside the footprint. dense_passes
// evaluates every satellite of every plane at every sample of the same
// grid (t += Tc/64, clamped to t1) and refines each sign change with the
// same batched margin and the same find_root calls — the plain sweep the
// pruned one must reproduce bit for bit (PassPredictor.MatchesDenseSweep*
// in tests/orbit/visibility_test.cpp).
#pragma once

#include <vector>

#include "orbit/visibility.hpp"

namespace oaq {

/// All passes over `target` within [t0, t1], sorted by start time, from
/// the unpruned sweep; same contract as PassPredictor::passes.
[[nodiscard]] std::vector<Pass> dense_passes(
    const Constellation& constellation, bool earth_rotation,
    const GeoPoint& target, Duration t0, Duration t1,
    Duration tol = Duration::seconds(0.01));

}  // namespace oaq
