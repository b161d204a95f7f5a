// 4-lane AVX-512 IFMA field arithmetic in GF(2^255 - 19) (internal).
//
// The lane-sliced backend behind the IFMA Montgomery ladder
// (x25519_ifma.cpp), for hosts with AVX512IFMA (vpmadd52luq /
// vpmadd52huq: per-qword 52x52-bit multiply into a 104-bit product,
// accumulated low/high half separately). IFMA multiplies 52-bit fields
// directly — 72 madds per mul4, plus six for 152 g — and the ladder
// keeps all four lanes
// busy with one step's independent products. Only 256-bit vectors are
// used (AVX512VL), avoiding 512-bit license downclocking.
//
// Radix: six limbs of 43 bits (2^258 > 2p, wrap constant 2^258 ≡ 152
// mod p). 43 was chosen for slack: vpmadd52 reads only the low 52 bits
// of each multiplicand, silently ignoring the rest, so every multiplier
// input must provably stay below 2^52. With 43-bit carried limbs, sums
// and biased differences reach only 3 * 2^43 < 2^44.6 — under the
// 2^44.75 that 152 g must respect as well — which means add4/sub4
// outputs feed mul4 with no normalization step, exactly like the scalar
// 51-bit code.
//
// Range discipline:
//   * mul4(f, g) accepts f with limbs < 2^46 and g with limbs at most
//     floor((2^52 - 1) / 152) < 2^44.75, and returns carried
//     values (limbs <= 2^43 + 1). The bound on g is the wrap fold's:
//     mul4 multiplies by 152 g (below), and vpmadd52 would silently
//     drop bits of 152 g above 2^52.
//   * add4 of two carried values stays at or under 2^44 + 2.
//   * sub4 requires carried inputs (its bias, 16p with limbs ~2^44, is
//     sized for them) and returns limbs in [2^43 - 305, 3 * 2^43).
//   * mul_small4 accepts add4/sub4 outputs (< 3 * 2^43); times s < 2^17
//     the exact products stay under 2^62, inside carry6's ceiling.
//   * So every g operand below is in domain. Ladder: g is
//     permute(abcd), abcd an add4/sub4 output (< 3 * 2^43); then
//     (t1, t2, BB, AA + 121665 E) with t1, t2 add4/sub4 outputs, BB
//     carried and the last an add4 of two carried values; then the
//     carried scale (1, x1, 1, 1). Comb: the entry is carried from
//     fe4_from_limbs, or a 16p - e lane (< 2^44); the second g mixes
//     add4/sub4 outputs. f is never above 3 * 2^43 either.
//   * Accumulators: with f < 2^46 and g at the bound, each of the six
//     low columns collects six low halves (< 2^52 each, < 2^54.6 in
//     all); each high column at most five high halves of f * 152 g
//     (< 2^46 each) plus ones of f * g (< 2^38.75), < 2^48.4, which the
//     9-bit realignment lifts to < 2^57.4. The one remaining wrap,
//     152 * (hi6 << 9) with hi6 < 6 * 2^38.75, adds < 2^57.6 to
//     column 0: every column stays under 2^58, far from u64 overflow
//     and inside carry6's 2^62.6.
//
// Every limb loop carries `#pragma GCC unroll`: the default build is
// RelWithDebInfo (-O2), where GCC 12 leaves the 6x6 vpmadd52 loops
// rolled with the column accumulators in memory, and the ladder then
// runs over twice as slow — slower than the 51-bit scalar ladder.
//
// This header is only meaningful in a translation unit compiled with
// -mavx512ifma -mavx512vl -mavx512dq; everything is guarded so other
// TUs see an empty namespace (x25519_ifma.cpp carries the stubs).
#pragma once

#include <cstdint>

#include "crypto/fe25519.h"

#if defined(__AVX512IFMA__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace shield5g::crypto::fe25519ifma {

inline constexpr std::uint64_t kMask43 = (1ULL << 43) - 1;

// Four field elements, lane-sliced: element l lives in qword lane l of
// every h[i]; limb i weighs 2^43i.
struct Fe4 {
  __m256i h[6];
};

inline __m256i fe4_set1(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

namespace internal {

// 152c = 128c + 16c + 8c (2^258 ≡ 152 mod p) for any c < 2^56, so the
// shifts cannot overflow: the carry's and mul4's last wrap, and the
// unpacking's.
inline __m256i times152(__m256i c) {
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_slli_epi64(c, 7), _mm256_slli_epi64(c, 4)),
      _mm256_slli_epi64(c, 3));
}

// Full carry; accepts limbs up to ~2^62.6 and leaves them carried
// (<= 2^43 + 1). Two interleaved chains — c0->c1->c2->c3 and
// c3->c4->c5->(x152)->c0 — plus a trailing stage: 4 two-op stages
// instead of an 8-step sweep, since the carry follows every mul and
// sits on the ladder's serial critical path.
//
// Range argument: stage carries are < 2^19.7; the wrap contributes
// 152 * 2^19.7 < 2^27.3 to h0. The trailing stage re-carries h3 and
// h0, whose carries are then <= 1, so h4 and h1 end at most one above
// their masks — well inside mul4's domain for f and g.
inline void carry6(Fe4& r) {
  const __m256i m43 = fe4_set1(kMask43);
  __m256i a, b;
  a = _mm256_srli_epi64(r.h[0], 43);
  b = _mm256_srli_epi64(r.h[3], 43);
  r.h[0] = _mm256_and_si256(r.h[0], m43);
  r.h[3] = _mm256_and_si256(r.h[3], m43);
  r.h[1] = _mm256_add_epi64(r.h[1], a);
  r.h[4] = _mm256_add_epi64(r.h[4], b);

  a = _mm256_srli_epi64(r.h[1], 43);
  b = _mm256_srli_epi64(r.h[4], 43);
  r.h[1] = _mm256_and_si256(r.h[1], m43);
  r.h[4] = _mm256_and_si256(r.h[4], m43);
  r.h[2] = _mm256_add_epi64(r.h[2], a);
  r.h[5] = _mm256_add_epi64(r.h[5], b);

  a = _mm256_srli_epi64(r.h[2], 43);
  b = _mm256_srli_epi64(r.h[5], 43);
  r.h[2] = _mm256_and_si256(r.h[2], m43);
  r.h[5] = _mm256_and_si256(r.h[5], m43);
  r.h[3] = _mm256_add_epi64(r.h[3], a);
  r.h[0] = _mm256_add_epi64(r.h[0], times152(b));

  a = _mm256_srli_epi64(r.h[3], 43);
  b = _mm256_srli_epi64(r.h[0], 43);
  r.h[3] = _mm256_and_si256(r.h[3], m43);
  r.h[0] = _mm256_and_si256(r.h[0], m43);
  r.h[4] = _mm256_add_epi64(r.h[4], a);
  r.h[1] = _mm256_add_epi64(r.h[1], b);
}

}  // namespace internal

/// Repacks 5x51 limb vectors a[i] (lane l holding limb i of element l,
/// every limb <= 2^52, i.e. carried or fe_load outputs) into the
/// lane-sliced 6x43 form; outputs are carried. The slicing adds
/// cross-limb pieces instead of OR-ing them, so loose 51-bit limbs
/// (which overlap their neighbor's bit range) convert exactly.
inline Fe4 fe4_from_limbs(const __m256i a[5]) {
  const __m256i m43 = fe4_set1(kMask43);
  Fe4 r;
  __m256i t, cy;
  r.h[0] = _mm256_and_si256(a[0], m43);
  cy = _mm256_srli_epi64(a[0], 43);

  t = _mm256_add_epi64(cy, _mm256_slli_epi64(a[1], 8));
  r.h[1] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      cy, _mm256_slli_epi64(
              _mm256_and_si256(a[2], fe4_set1((1ULL << 27) - 1)), 16));
  r.h[2] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      _mm256_add_epi64(cy, _mm256_srli_epi64(a[2], 27)),
      _mm256_slli_epi64(_mm256_and_si256(a[3], fe4_set1((1ULL << 19) - 1)),
                        24));
  r.h[3] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      _mm256_add_epi64(cy, _mm256_srli_epi64(a[3], 19)),
      _mm256_slli_epi64(_mm256_and_si256(a[4], fe4_set1((1ULL << 11) - 1)),
                        32));
  r.h[4] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  r.h[5] = _mm256_add_epi64(cy, _mm256_srli_epi64(a[4], 11));
  return r;
}

/// Packs four 5x51 elements (limbs <= 2^52) into the lane-sliced 6x43
/// form; outputs are carried.
inline Fe4 fe4_from_lanes(const fe25519::Fe in[4]) {
  __m256i a[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    a[i] = _mm256_set_epi64x(
        static_cast<long long>(in[3][i]), static_cast<long long>(in[2][i]),
        static_cast<long long>(in[1][i]), static_cast<long long>(in[0][i]));
  }
  return fe4_from_limbs(a);
}

/// Unpacks carried lanes back to 5x51 (limbs <= 2^54, safe for fe_mul /
/// fe_store). Bits of h[5] above its mask weigh 2^258 ≡ 152 and fold
/// into limb 0. Limb 4 takes h[5]'s low 43 bits shifted up by 11, so it
/// reaches 2^54: outside fe_sub's < 2^52 domain, where its 2p bias
/// would wrap. Subtract in lanes, and carry, before unpacking.
inline void fe4_to_lanes(const Fe4& v, fe25519::Fe out[4]) {
  const __m256i m43 = fe4_set1(kMask43);
  __m256i a[5];
  a[0] = _mm256_add_epi64(
      _mm256_add_epi64(
          v.h[0],
          _mm256_slli_epi64(
              _mm256_and_si256(v.h[1], fe4_set1((1ULL << 8) - 1)), 43)),
      internal::times152(_mm256_srli_epi64(v.h[5], 43)));
  a[1] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[1], 8),
      _mm256_slli_epi64(
          _mm256_and_si256(v.h[2], fe4_set1((1ULL << 16) - 1)), 35));
  a[2] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[2], 16),
      _mm256_slli_epi64(
          _mm256_and_si256(v.h[3], fe4_set1((1ULL << 24) - 1)), 27));
  a[3] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[3], 24),
      _mm256_slli_epi64(
          _mm256_and_si256(v.h[4], fe4_set1((1ULL << 32) - 1)), 19));
  a[4] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[4], 32),
      _mm256_slli_epi64(_mm256_and_si256(v.h[5], m43), 11));

  alignas(32) std::uint64_t lanes[5][4];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[i]), a[i]);
  }
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < 5; ++i) out[l][i] = lanes[i][l];
  }
}

inline Fe4 add4(const Fe4& a, const Fe4& b) {
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) r.h[i] = _mm256_add_epi64(a.h[i], b.h[i]);
  return r;
}

/// a + 16p - b with both inputs carried; limbs stay positive and inside
/// mul4's g domain. 16p = 2^259 - 304 = (2^44 - 304) + (2^44 - 2) *
/// (2^43 + 2^86 + ... + 2^215).
inline Fe4 sub4(const Fe4& a, const Fe4& b) {
  const __m256i bias0 = fe4_set1((1ULL << 44) - 304);
  const __m256i bias = fe4_set1((1ULL << 44) - 2);
  Fe4 r;
  r.h[0] = _mm256_add_epi64(a.h[0], _mm256_sub_epi64(bias0, b.h[0]));
#pragma GCC unroll 5
  for (int i = 1; i < 6; ++i) {
    r.h[i] = _mm256_add_epi64(a.h[i], _mm256_sub_epi64(bias, b.h[i]));
  }
  return r;
}

/// 152 g, one vpmadd52luq per limb: exact for limbs up to
/// floor((2^52 - 1) / 152), mul4's bound on g. mul4 computes it; the
/// ladder hoists it for its constant operand.
inline Fe4 wrap152(const Fe4& g) {
  const __m256i k152 = fe4_set1(152);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_madd52lo_epu64(_mm256_setzero_si256(), g.h[i], k152);
  }
  return r;
}

/// Lane-sliced schoolbook multiply, given g152 = wrap152(g).
/// vpmadd52luq accumulates the low 52 bits of each 104-bit partial
/// product into its column; the high half lands one limb up, off the
/// 43-bit grid by 52 - 43 = 9 bits, so high halves accumulate
/// separately and shift into place once per column. A product f_i g_j
/// with i + j >= 6 weighs 2^258 * 2^43(i+j-6) ≡ 152 * 2^43(i+j-6), so it
/// is taken as f_i * (152 g_j) straight into column i + j - 6: six low
/// and six high columns, and only the high halves of the i + j = 5
/// products (high column 6) still wrap by 152.
inline Fe4 mul4(const Fe4& f, const Fe4& g, const Fe4& g152) {
  // hi[c] collects the high halves landing in column c (hi[0] none).
  __m256i lo[6], hi[7];
#pragma GCC unroll 7
  for (int c = 0; c < 7; ++c) hi[c] = _mm256_setzero_si256();
#pragma GCC unroll 6
  for (int c = 0; c < 6; ++c) lo[c] = _mm256_setzero_si256();
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
#pragma GCC unroll 6
    for (int j = 0; j < 6; ++j) {
      const int c = i + j < 6 ? i + j : i + j - 6;
      const __m256i gj = i + j < 6 ? g.h[j] : g152.h[j];
      lo[c] = _mm256_madd52lo_epu64(lo[c], f.h[i], gj);
      hi[c + 1] = _mm256_madd52hi_epu64(hi[c + 1], f.h[i], gj);
    }
  }
  Fe4 r;
  r.h[0] = _mm256_add_epi64(
      lo[0], internal::times152(_mm256_slli_epi64(hi[6], 9)));
#pragma GCC unroll 5
  for (int c = 1; c < 6; ++c) {
    r.h[c] = _mm256_add_epi64(lo[c], _mm256_slli_epi64(hi[c], 9));
  }
  internal::carry6(r);
  return r;
}

inline Fe4 mul4(const Fe4& f, const Fe4& g) {
  return mul4(f, g, wrap152(g));
}

/// f * s for small s (s < 2^17, e.g. the ladder's 121665): the exact
/// products (< 2^62) are rebuilt from vpmadd52's high and low halves —
/// two 4-cycle madds where vpmullq is 3 uops and 15 cycles — and one
/// carry pass finishes; no wrap fold, since no column reaches limb 6.
inline Fe4 mul_small4(const Fe4& f, std::uint32_t s) {
  const __m256i vs = fe4_set1(s);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
    const __m256i hi =
        _mm256_madd52hi_epu64(_mm256_setzero_si256(), f.h[i], vs);
    r.h[i] = _mm256_madd52lo_epu64(_mm256_slli_epi64(hi, 52), f.h[i], vs);
  }
  internal::carry6(r);
  return r;
}

}  // namespace shield5g::crypto::fe25519ifma

#endif  // __AVX512IFMA__ && __AVX512VL__ && __AVX512DQ__
