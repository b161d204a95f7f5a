// Internal X25519 entry points for parity tests and benchmarks.
//
// Production code calls crypto::x25519(), which picks the fast path on
// its own. These hooks let tests pin a specific path and assert that
// the Montgomery ladder and the Edwards comb agree bit for bit.
#pragma once

#include "crypto/x25519.h"

namespace shield5g::crypto::detail {

/// Montgomery ladder, unconditionally. Does not charge op counts.
X25519Key x25519_ladder(SecretView scalar, ByteView u);

/// Edwards comb, unconditionally (builds a throwaway table when the
/// point is not already cached). Throws std::invalid_argument when the
/// point does not lift to edwards25519. Does not charge op counts.
X25519Key x25519_comb_forced(SecretView scalar, ByteView u);

/// True when `u` lifts to edwards25519 (i.e. the comb can serve it).
bool x25519_comb_liftable(ByteView u);

/// Drops the process-wide shared comb-table cache and this thread's
/// candidate sighting counts (tests reset between cases). Must be
/// called while no other thread is evaluating x25519 — published
/// entries are freed here and readers take no lock.
void x25519_cache_reset();

/// Number of comb-table entries currently published in the shared
/// cache (unliftable verdicts included).
std::size_t x25519_cache_size();

}  // namespace shield5g::crypto::detail
