// Internal X25519 entry points: the ladder kernels behind crypto::x25519()
// and the hooks that parity tests and benchmarks pin them through.
//
// Production code calls crypto::x25519(), which picks the fast path on
// its own. These hooks let tests pin a specific path and assert that
// the Montgomery ladders and the Edwards comb agree bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/fe25519.h"
#include "crypto/x25519.h"

namespace shield5g::crypto::detail {

/// Montgomery ladder, unconditionally. Does not charge op counts.
X25519Key x25519_ladder(SecretView scalar, ByteView u);

/// The 51-bit RFC 7748 ladder up to its final inversion, u = num/den,
/// for a clamped scalar `k` — the reference every other kernel matches.
void x25519_ladder_fraction(const std::uint8_t k[32], const std::uint8_t u[32],
                            fe25519::Fe& num, fe25519::Fe& den);

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

/// True when a variable-base x25519() call that no comb table serves
/// runs the IFMA ladder: the accelerated backend on a build and host
/// that support it. Otherwise it runs the 51-bit ladder.
bool x25519_ladder_is_ifma() noexcept;

// ---------------------------------------------------------------------
// AVX-512 IFMA kernel (x25519_ifma.cpp). Callers must check
// cpu_has_avx512ifma() && x25519_ifma_compiled() before any other call.
// ---------------------------------------------------------------------

/// True when the toolchain accepted the IFMA flags and the kernel TU
/// holds the real ladder rather than stubs.
bool x25519_ifma_compiled() noexcept;

/// One ladder with (x2, z2, x3, z3) in the four lanes of each limb
/// vector. Same (num, den) as x25519_ladder_fraction, equal as field
/// elements; x1 is the fe_load of the peer's u-coordinate.
void x25519_ifma_ladder_fraction(const std::uint8_t k[32],
                                 const fe25519::Fe& x1, fe25519::Fe& num,
                                 fe25519::Fe& den);

/// Test hook: mul4 on four lanes of 5x51 limbs (each up to 2^54),
/// through the same 51 <-> 43 conversions the ladder uses. Returns
/// false when the kernel is not compiled.
bool x25519_ifma_mul(const fe25519::Fe a[4], const fe25519::Fe b[4],
                     fe25519::Fe r[4]);

/// Test hook: one field op on raw lane-sliced 6x43 limbs, so range
/// tests can drive each op at the edge of its documented domain.
/// kMulSmall multiplies `a` by the ladder's 121665 and ignores `b`.
/// Returns false when the kernel is not compiled.
using Limbs43 = std::array<std::uint64_t, 6>;
enum class IfmaOp { kAdd, kSub, kMul, kMulSmall };
bool x25519_ifma_limbs(IfmaOp op, const Limbs43 a[4], const Limbs43 b[4],
                       Limbs43 r[4]);

}  // namespace shield5g::crypto::detail
