// AVX-512 IFMA Montgomery ladder and Edwards comb (the only TU built
// with -mavx512ifma).
//
// One ladder, four lanes: the state (x2, z2, x3, z3) lives in the four
// qword lanes of every limb vector, so each RFC 7748 step runs as three
// lane-parallel multiplies instead of the scalar step's 5M + 4S + 1
// small. The output (num, den) equals the 51-bit ladder_fraction's as
// field elements — same formulas, same projective representative — so
// the caller's final inversion and every output byte stay as they are.
//
// One comb, four lanes: the Edwards accumulator (X, Y, Z, T) stays in
// the lanes for all 64 windows, and each mixed addition is two mul4
// instead of the portable comb's seven fe_mul. Same (num, den) as the
// portable comb, for the same reason.
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

// Constant-time select: b when `bit` is 1, a when it is 0. The secret
// bit only ever reaches this mask, never a branch or an index.
Fe4 select4(const Fe4& a, const Fe4& b, std::uint64_t bit) {
  const __m256i mask = fe4_set1(0 - bit);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_xor_si256(
        a.h[i], _mm256_and_si256(mask, _mm256_xor_si256(a.h[i], b.h[i])));
  }
  return r;
}

// Constant-time pair swap (x2, z2) <-> (x3, z3) when `swap` is 1.
void cswap_pairs(Fe4& x, std::uint64_t swap) {
  x = select4(x, permute4<0x4e>(x), swap);  // (x3, z3, x2, z2)
}

// Lane l of the result is lane kIdx[l] & 3 of a (kIdx[l] < 4) or of b
// (kIdx[l] >= 4), on every limb (vpermt2q).
template <int kIdx0, int kIdx1, int kIdx2, int kIdx3>
Fe4 permute2(const Fe4& a, const Fe4& b) {
  const __m256i idx = _mm256_set_epi64x(kIdx3, kIdx2, kIdx1, kIdx0);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_permutex2var_epi64(a.h[i], idx, b.h[i]);
  }
  return r;
}

// Constant-time select from one comb window row: the four vectors of
// the entry for |digit| (every entry is loaded and masked in, or out;
// digit 0 leaves the identity (1, 1, 0)), and the digit's sign bit.
void comb_select4(const std::uint64_t* row, std::int64_t digit,
                  __m256i v[4], std::uint64_t& neg) {
  const std::int64_t m = digit >> 63;  // arithmetic: all-ones when negative
  const __m256i mag = fe4_set1(static_cast<std::uint64_t>((digit ^ m) - m));
  neg = static_cast<std::uint64_t>(m) & 1;
  const __m256i* entry = reinterpret_cast<const __m256i*>(row);
  const __m256i zero = _mm256_cmpeq_epi64(mag, _mm256_setzero_si256());
  v[0] = _mm256_and_si256(zero, _mm256_set_epi64x(0, 0, 1, 1));
  v[1] = v[2] = v[3] = _mm256_setzero_si256();
#pragma GCC unroll 8
  for (int j = 0; j < kCombRowEntries; ++j) {
    const __m256i mask = _mm256_cmpeq_epi64(mag, fe4_set1(j + 1));
#pragma GCC unroll 4
    for (int k = 0; k < 4; ++k) {
      v[k] = _mm256_or_si256(
          v[k], _mm256_and_si256(mask, _mm256_loadu_si256(entry + 4 * j + k)));
    }
  }
}

// The selected entry's flat words as lane-sliced (y+x, y-x, 2dxy, 2),
// negated to (y-x, y+x, 32p - 2dxy, 2) when `neg` is 1. valignq lines
// limb l's three words (3l, 3l+1, 3l+2) up in lanes 0-2 of one vector;
// lane 3 is then set to the constant 2 (limb 0) or 0.
Fe4 comb_entry4(const __m256i v[4], std::uint64_t neg) {
  const __m256i limbs[5] = {v[0], _mm256_alignr_epi64(v[1], v[0], 3),
                            _mm256_alignr_epi64(v[2], v[1], 2),
                            _mm256_alignr_epi64(v[3], v[2], 1), v[3]};
  __m256i lanes[5];
  lanes[0] = _mm256_blend_epi32(limbs[0], _mm256_set_epi64x(2, 0, 0, 0), 0xc0);
#pragma GCC unroll 4
  for (int l = 1; l < 5; ++l) {
    lanes[l] = _mm256_blend_epi32(limbs[l], _mm256_setzero_si256(), 0xc0);
  }
  const Fe4 e = fe4_from_limbs(lanes);
  return select4(e, blend4<0x4>(permute4<0xe1>(e), sub4(Fe4{}, e)), neg);
}

// acc + entry for acc = (X, Y, Z, T) and entry = (y+x, y-x, 2dxy, 2):
//   (a, b, c, 2Z) = (Y+X, Y-X, T, Z) * entry,
//   (X', Y', Z', T') = (e, g, f, e) * (f, h, g, h)
// with e = a-b, f = 2Z-c, g = 2Z+c, h = a+b: the portable ext_madd's
// formulas, so the same projective result.
Fe4 comb_madd4(const Fe4& acc, const Fe4& entry) {
  const Fe4 p = permute4<0xb5>(acc);  // (Y, Y, T, Z)
  const Fe4 q = permute4<0x00>(acc);  // (X, X, X, X)
  const Fe4 left = blend4<0xc>(blend4<0x2>(add4(p, q), sub4(p, q)), p);
  const Fe4 m = mul4(left, entry);    // (a, b, c, d = 2Z)
  const Fe4 u = permute4<0x3c>(m);    // (a, d, d, a)
  const Fe4 w = permute4<0x69>(m);    // (b, c, c, b)
  const Fe4 sum = add4(u, w);         // (h, g, g, h)
  const Fe4 diff = sub4(u, w);        // (e, f, f, e)
  return mul4(blend4<0x2>(diff, sum),               // (e, g, f, e)
              permute2<1, 4, 5, 7>(diff, sum));     // (f, h, g, h)
}

// (Z+Y, Z-Y) of acc = (X, Y, Z, T) in lanes 0 and 1, carried. Formed
// in lanes because fe4_to_lanes' outputs reach 2^54, outside fe_sub's
// domain; carried because fe4_to_lanes keeps them within fe_mul's
// 2^54 only for carried inputs (add4/sub4 outputs overshoot by 2^14).
Fe4 comb_zy4(const Fe4& acc) {
  const Fe4 z = permute4<0xaa>(acc);  // (Z, Z, Z, Z)
  const Fe4 y = permute4<0x55>(acc);  // (Y, Y, Y, Y)
  Fe4 zy = blend4<0x2>(add4(z, y), sub4(z, y));
  internal::carry6(zy);
  return zy;
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

// Raw lane-sliced limbs in and out of the test hooks.
Fe4 load_limbs43(const Limbs43 in[4]) {
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_set_epi64x(
        static_cast<long long>(in[3][i]), static_cast<long long>(in[2][i]),
        static_cast<long long>(in[1][i]), static_cast<long long>(in[0][i]));
  }
  return r;
}

void store_limbs43(const Fe4& v, Limbs43 out[4]) {
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v.h[i]);
    for (int l = 0; l < 4; ++l) out[l][i] = lanes[l];
  }
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

void x25519_ifma_comb_fraction(const std::uint64_t* table,
                               const std::int8_t digits[kCombWindows],
                               Fe& num, Fe& den) {
  // The identity (X, Y, Z, T) = (0, 1, 1, 0).
  Fe4 acc{};
  acc.h[0] = _mm256_set_epi64x(0, 1, 1, 0);
  for (int i = 0; i < kCombWindows; ++i) {
    __m256i v[4];
    std::uint64_t neg;
    comb_select4(table + i * kCombRowEntries * kCombEntryWords, digits[i], v,
                 neg);
    acc = comb_madd4(acc, comb_entry4(v, neg));
  }
  // Back to Montgomery: u = (Z+Y)/(Z-Y).
  Fe out[4];
  fe4_to_lanes(comb_zy4(acc), out);
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
  const Fe4 va = load_limbs43(a), vb = load_limbs43(b);
  Fe4 vr{};
  switch (op) {
    case IfmaOp::kAdd: vr = add4(va, vb); break;
    case IfmaOp::kSub: vr = sub4(va, vb); break;
    case IfmaOp::kMul: vr = mul4(va, vb); break;
    case IfmaOp::kMulSmall: vr = mul_small4(va, 121665); break;
  }
  store_limbs43(vr, r);
  return true;
}

bool x25519_ifma_comb_window(const Limbs43 acc[4],
                             const std::uint64_t entry[kCombEntryWords],
                             std::uint64_t neg, Limbs43 sum[4], Fe zy[2]) {
  const Fe4 a = load_limbs43(acc);
  __m256i v[4];
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    v[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(entry) + k);
  }
  store_limbs43(comb_madd4(a, comb_entry4(v, neg)), sum);
  Fe out[4];
  fe4_to_lanes(comb_zy4(a), out);
  zy[0] = out[0];
  zy[1] = out[1];
  return true;
}

#else  // !(__AVX512IFMA__ && __AVX512VL__ && __AVX512DQ__)

bool x25519_ifma_compiled() noexcept { return false; }

void x25519_ifma_ladder_fraction(const std::uint8_t[32], const fe25519::Fe&,
                                 fe25519::Fe&, fe25519::Fe&) {
  // Unreachable by contract (callers gate on x25519_ifma_compiled()).
}

void x25519_ifma_comb_fraction(const std::uint64_t*,
                               const std::int8_t[kCombWindows], fe25519::Fe&,
                               fe25519::Fe&) {
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

bool x25519_ifma_comb_window(const Limbs43[4],
                             const std::uint64_t[kCombEntryWords],
                             std::uint64_t, Limbs43[4], fe25519::Fe[2]) {
  return false;
}

#endif

}  // namespace shield5g::crypto::detail
