// Fixed-point X25519 via an Edwards comb (internal).
//
// The registration hot path multiplies two kinds of point over and
// over: the curve base point (every ephemeral keypair) and the keys a
// caller pins (a server's TLS identity, the home network's ECIES key).
// For such a point we lift its Montgomery u-coordinate to
// edwards25519, build a 64-window x signed-4-bit comb table
// T[i][j] = j * 16^i * P (j = 1..8, affine entries) once, and replace
// each 255-double Montgomery ladder with 64 constant-time table scans
// and mixed additions. crypto/x25519.cpp decides which points get a
// table; points that do not lift (the curve's quadratic twist, or
// u = -1) keep the ladder.
//
// The output u-coordinate is bit-identical to the ladder's: both paths
// canonicalize the same field element. Virtual-time op counts are
// charged by the public x25519 entry points regardless of path.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/fe25519.h"

namespace shield5g::crypto::detail {

struct CombTable;  // opaque; 64 KiB, heap-allocated

struct CombTableDeleter {
  void operator()(CombTable* t) const noexcept;
};
using CombTablePtr = std::unique_ptr<CombTable, CombTableDeleter>;

/// Lifts the Montgomery u-coordinate `u32` (32 bytes, little-endian) to
/// edwards25519 and builds the comb table. Returns nullptr when the
/// point is not liftable (twist point or exceptional u); callers must
/// then keep using the ladder for this point.
CombTablePtr comb_build(const std::uint8_t* u32);

/// The u-coordinate of clamped_scalar * P, where P is the point the
/// table was built from, up to (but not including) the final field
/// inversion: u = num/den, so callers that perform several scalar
/// mults can batch the inversions (Montgomery's trick). `scalar32` must
/// already be RFC 7748 clamped; den is zero where the ladder's output
/// canonicalizes to u = 0. Runs the IFMA comb when
/// x25519_ladder_is_ifma(), else the portable comb; both return the
/// same (num, den) as field elements as the Montgomery ladder.
void comb_eval_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        fe25519::Fe& num, fe25519::Fe& den);

/// Test and benchmark hooks that pin one comb: the portable comb on any
/// host (the reference), and the IFMA comb, which callers may enter
/// only when cpu_has_avx512ifma() && x25519_ifma_compiled().
void comb_portable_fraction(const CombTable& table,
                            const std::uint8_t* scalar32, fe25519::Fe& num,
                            fe25519::Fe& den);
void comb_ifma_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        fe25519::Fe& num, fe25519::Fe& den);

}  // namespace shield5g::crypto::detail
