// Global heap-allocation counter for the steady-state allocation suite.
//
// Linking alloc_counter.cpp into a binary replaces the global operator
// new/delete with malloc/free wrappers that bump an atomic counter per
// allocation. Test-only: the library itself is never built with this —
// it exists to *prove* the zero-allocation claims of the hot paths
// (tests/alloc/steady_state_alloc_test.cpp), not to instrument
// production runs. Replacing operator new bypasses AddressSanitizer's
// heap checks, so a binary that links this does not belong in an ASan
// job.
#pragma once

#include <cstdint>

namespace oaq {

/// Number of global operator-new calls since process start. Only counts
/// when alloc_counter.cpp is linked into the binary; the delta across a
/// code region is that region's allocation count (single-threaded use).
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace oaq
