// Internal X25519 entry points: the ladder and comb kernels behind
// the public entries in crypto/x25519.h and the hooks that parity
// tests and benchmarks pin them through.
//
// Production code calls the public entries, whose kind of point picks
// the path. These hooks let tests pin a specific path and assert that
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

/// Edwards comb, unconditionally, on a throwaway table. Throws
/// std::invalid_argument when the point does not lift to edwards25519.
/// Does not charge op counts.
X25519Key x25519_comb_forced(SecretView scalar, ByteView u);

/// True when `u` lifts to edwards25519 (i.e. the comb can serve it).
bool x25519_comb_liftable(ByteView u);

/// Drops the process-wide pinned-key cache (tests reset between
/// cases); the base point's table stays. Must be called while no other
/// thread is evaluating x25519 — published entries are freed here and
/// readers take no lock.
void x25519_cache_reset();

/// Number of pinned keys currently published in the shared cache
/// (unliftable verdicts included).
std::size_t x25519_cache_size();

/// True when the public entries run the IFMA kernels: the accelerated
/// backend on a build and host that support them. A point no comb
/// table serves then takes the IFMA ladder, and a comb hit the IFMA
/// comb. Otherwise they take the 51-bit ladder and the portable comb.
bool x25519_ladder_is_ifma() noexcept;

// ---------------------------------------------------------------------
// Comb table layout, shared by the portable comb (x25519_comb.cpp) and
// the IFMA comb. A table is kCombWindows rows of kCombRowEntries
// entries; entry [i][j-1] is the affine point j * 16^i * P as
// (y+x, y-x, 2dxy). Each entry is kCombEntryWords flat words,
// limb-major: limb l of the three elements sits at words 3l, 3l+1 and
// 3l+2, and word 15 is zero. Sixteen words are four 256-bit vectors,
// so the constant-time select is a branch-free mask-and-OR over whole
// entries on every host.
// ---------------------------------------------------------------------
inline constexpr int kCombWindows = 64;
inline constexpr int kCombRowEntries = 8;
inline constexpr int kCombEntryWords = 16;

// ---------------------------------------------------------------------
// AVX-512 IFMA kernels (x25519_ifma.cpp). Callers must check
// cpu_has_avx512ifma() && x25519_ifma_compiled() before any other call.
// ---------------------------------------------------------------------

/// True when the toolchain accepted the IFMA flags and the kernel TU
/// holds the real ladder and comb rather than stubs.
bool x25519_ifma_compiled() noexcept;

/// One ladder with (x2, z2, x3, z3) in the four lanes of each limb
/// vector. Same (num, den) as x25519_ladder_fraction, equal as field
/// elements; x1 is the fe_load of the peer's u-coordinate.
void x25519_ifma_ladder_fraction(const std::uint8_t k[32],
                                 const fe25519::Fe& x1, fe25519::Fe& num,
                                 fe25519::Fe& den);

/// The comb with the Edwards accumulator (X, Y, Z, T) in the four lanes
/// of each limb vector for all 64 windows: two mul4 per window instead
/// of the portable mixed addition's seven fe_mul. `table` is a comb
/// table's flat words (layout above), `digits` the signed radix-16
/// recoding of the clamped scalar. Same (num, den) as the portable
/// comb, equal as field elements.
void x25519_ifma_comb_fraction(const std::uint64_t* table,
                               const std::int8_t digits[kCombWindows],
                               fe25519::Fe& num, fe25519::Fe& den);

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

/// Test hook: the IFMA comb's lane chain for one window on raw limbs.
/// `entry` (flat words, limbs up to 2^52) is unpacked to lanes and
/// negated when `neg` is 1, then added to the accumulator `acc`
/// (X, Y, Z, T) into `sum`; `zy` is the kernel's final (Z+Y, Z-Y) of
/// `acc`, unpacked to 5x51. Returns false when the kernel is not
/// compiled.
bool x25519_ifma_comb_window(const Limbs43 acc[4],
                             const std::uint64_t entry[kCombEntryWords],
                             std::uint64_t neg, Limbs43 sum[4],
                             fe25519::Fe zy[2]);

}  // namespace shield5g::crypto::detail
