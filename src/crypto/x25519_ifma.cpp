// AVX-512 IFMA Montgomery ladder (the only TU built with -mavx512ifma).
//
// One ladder, four lanes: the state (x2, z2, x3, z3) lives in the four
// qword lanes of every limb vector, so each RFC 7748 step runs as three
// lane-parallel multiplies instead of the scalar step's 5M + 4S + 1
// small. The output (num, den) equals the 51-bit ladder_fraction's as
// field elements — same formulas, same projective representative — so
// the caller's final inversion and every output byte stay as they are.
//
// Everything is guarded by the AVX512IFMA/VL/DQ macros: when the
// toolchain cannot target them this file compiles to stubs. Callers
// gate on cpu_has_avx512ifma() && x25519_ifma_compiled() before
// entering the kernels, and this TU calls no inline function shared
// with other TUs, so no AVX-512 instruction can leak into code that
// runs on hosts without it.
#include "crypto/fe25519ifma.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto::detail {

#if defined(__AVX512IFMA__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

namespace {

using fe25519::Fe;
using namespace fe25519ifma;

// The same lane permutation on every limb (vpermq): lane l of the
// result is lane (kImm >> 2l) & 3 of v.
template <int kImm>
Fe4 permute4(const Fe4& v) {
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_permute4x64_epi64(v.h[i], kImm);
  }
  return r;
}

// Per-lane select: lanes whose bit is set in kLanes come from b.
template <int kLanes>
Fe4 blend4(const Fe4& a, const Fe4& b) {
  // vpblendd takes one bit per dword: each qword lane is two bits.
  constexpr int kDwords =
      ((kLanes & 1) ? 0x03 : 0) | ((kLanes & 2) ? 0x0c : 0) |
      ((kLanes & 4) ? 0x30 : 0) | ((kLanes & 8) ? 0xc0 : 0);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_blend_epi32(a.h[i], b.h[i], kDwords);
  }
  return r;
}

// Constant-time pair swap (x2, z2) <-> (x3, z3) when `swap` is 1: the
// scalar bit only ever reaches this mask, never a branch or an index.
void cswap_pairs(Fe4& x, std::uint64_t swap) {
  const __m256i mask = fe4_set1(0 - swap);
  const Fe4 flipped = permute4<0x4e>(x);  // (x3, z3, x2, z2)
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    x.h[i] = _mm256_xor_si256(
        x.h[i],
        _mm256_and_si256(mask, _mm256_xor_si256(x.h[i], flipped.h[i])));
  }
}

// Value-preserving re-carry into < 2^52 limbs (fe_store's lossy passes
// without the canonicalization), so test-hook inputs with limbs up to
// 2^54 fit the fe4_from_lanes contract and outputs report carried 5x51
// limbs like the scalar ops.
Fe loose_carry(const Fe& in) {
  using fe25519::kMask51;
  Fe r = in;
  for (int pass = 0; pass < 2; ++pass) {
    r[1] += r[0] >> 51; r[0] &= kMask51;
    r[2] += r[1] >> 51; r[1] &= kMask51;
    r[3] += r[2] >> 51; r[2] &= kMask51;
    r[4] += r[3] >> 51; r[3] &= kMask51;
    r[0] += 19 * (r[4] >> 51); r[4] &= kMask51;
  }
  return r;
}

}  // namespace

bool x25519_ifma_compiled() noexcept { return true; }

void x25519_ifma_ladder_fraction(const std::uint8_t k[32], const Fe& x1,
                                 Fe& num, Fe& den) {
  const Fe one{1, 0, 0, 0, 0}, zero{0, 0, 0, 0, 0};
  const Fe start[4] = {one, zero, x1, one};      // (x2, z2, x3, z3)
  const Fe scale_lanes[4] = {one, x1, one, one};  // step 5's (1, x1, 1, 1)
  Fe4 x = fe4_from_lanes(start);
  const Fe4 scale = fe4_from_lanes(scale_lanes);
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    cswap_pairs(x, swap);
    swap = k_t;

    // (A, B, C, D) = (x2+z2, x2-z2, x3+z3, x3-z3).
    const Fe4 u = permute4<0xa0>(x);  // (x2, x2, x3, x3)
    const Fe4 v = permute4<0xf5>(x);  // (z2, z2, z3, z3)
    const Fe4 abcd = blend4<0xa>(add4(u, v), sub4(u, v));
    // (AA, BB, DA, CB).
    const Fe4 m = mul4(permute4<0xb4>(abcd), permute4<0x44>(abcd));
    // (t1, t2, ., E) = (DA+CB, DA-CB, ., AA-BB).
    const Fe4 p = permute4<0x0a>(m);  // (DA, DA, AA, AA)
    const Fe4 q = permute4<0x5f>(m);  // (CB, CB, BB, BB)
    const Fe4 r = blend4<0xa>(add4(p, q), sub4(p, q));
    const Fe4 f = blend4<0x4>(r, p);  // (t1, t2, AA, E)
    // (t1, t2, BB, AA + 121665 E).
    const Fe4 g = blend4<0x8>(blend4<0x4>(r, q),
                              add4(mul_small4(r, 121665), p));
    // The step's output is (x3', z3', x2', z2'): the pairs sit swapped,
    // so rather than permuting them back, the pending swap bit flips.
    x = mul4(mul4(f, g), scale);
    swap ^= 1;
  }
  cswap_pairs(x, swap);
  Fe out[4];
  fe4_to_lanes(x, out);
  num = out[0];
  den = out[1];
}

bool x25519_ifma_mul(const Fe a[4], const Fe b[4], Fe r[4]) {
  Fe an[4], bn[4];
  for (int l = 0; l < 4; ++l) {
    an[l] = loose_carry(a[l]);
    bn[l] = loose_carry(b[l]);
  }
  fe4_to_lanes(mul4(fe4_from_lanes(an), fe4_from_lanes(bn)), r);
  for (int l = 0; l < 4; ++l) r[l] = loose_carry(r[l]);
  return true;
}

bool x25519_ifma_limbs(IfmaOp op, const Limbs43 a[4], const Limbs43 b[4],
                       Limbs43 r[4]) {
  Fe4 va{}, vb{}, vr{};
  for (int i = 0; i < 6; ++i) {
    va.h[i] = _mm256_set_epi64x(
        static_cast<long long>(a[3][i]), static_cast<long long>(a[2][i]),
        static_cast<long long>(a[1][i]), static_cast<long long>(a[0][i]));
    vb.h[i] = _mm256_set_epi64x(
        static_cast<long long>(b[3][i]), static_cast<long long>(b[2][i]),
        static_cast<long long>(b[1][i]), static_cast<long long>(b[0][i]));
  }
  switch (op) {
    case IfmaOp::kAdd: vr = add4(va, vb); break;
    case IfmaOp::kSub: vr = sub4(va, vb); break;
    case IfmaOp::kMul: vr = mul4(va, vb); break;
    case IfmaOp::kMulSmall: vr = mul_small4(va, 121665); break;
  }
  for (int i = 0; i < 6; ++i) {
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vr.h[i]);
    for (int l = 0; l < 4; ++l) r[l][i] = lanes[l];
  }
  return true;
}

#else  // !(__AVX512IFMA__ && __AVX512VL__ && __AVX512DQ__)

bool x25519_ifma_compiled() noexcept { return false; }

void x25519_ifma_ladder_fraction(const std::uint8_t[32], const fe25519::Fe&,
                                 fe25519::Fe&, fe25519::Fe&) {
  // Unreachable by contract (callers gate on x25519_ifma_compiled()).
}

bool x25519_ifma_mul(const fe25519::Fe[4], const fe25519::Fe[4],
                     fe25519::Fe[4]) {
  return false;
}

bool x25519_ifma_limbs(IfmaOp, const Limbs43[4], const Limbs43[4],
                       Limbs43[4]) {
  return false;
}

#endif

}  // namespace shield5g::crypto::detail
