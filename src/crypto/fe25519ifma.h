// 4-lane AVX-512 IFMA field arithmetic in GF(2^255 - 19) (internal).
//
// The lane-sliced backend behind the IFMA Montgomery ladder
// (x25519_ifma.cpp), for hosts with AVX512IFMA (vpmadd52luq /
// vpmadd52huq: per-qword 52x52-bit multiply into a 104-bit product,
// accumulated low/high half separately). IFMA multiplies 52-bit fields
// directly — 72 madds per mul4 — and the ladder keeps all four lanes
// busy with one step's independent products. Only 256-bit vectors are
// used (AVX512VL), avoiding 512-bit license downclocking.
//
// Radix: six limbs of 43 bits (2^258 > 2p, wrap constant 2^258 ≡ 152
// mod p). 43 was chosen for slack: vpmadd52 reads only the low 52 bits
// of each multiplicand, silently ignoring the rest, so every multiplier
// input must provably stay below 2^52. With 43-bit carried limbs, sums
// and biased differences reach only ~2^46 — far under the 52-bit edge —
// which means add4/sub4 outputs feed mul4 with no normalization step,
// exactly like the scalar 51-bit code.
//
// Range discipline:
//   * mul4 accepts limbs < 2^46 ("loose") and returns carried values
//     (limbs <= 2^43 + 1).
//   * add4 of two carried values stays under 2^44.1 — loose.
//   * sub4 requires carried inputs (its bias, 32p with limbs ~2^45, is
//     sized for them) and returns limbs < 2^45.6 — loose.
//   * mul_small4 accepts add4/sub4 outputs (< 2^45.6); times s < 2^17
//     the exact products stay under carry6's 2^62.6 ceiling.
//   * Accumulators: a product of loose limbs is < 2^92; each of the 12
//     column sums collects at most 6 low halves (< 2^52) plus the
//     9-bit-realigned high halves, staying under 2^54.8; the 152x wrap
//     fold lifts that to at most ~2^62.2 — no u64 overflow.
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

// 152c = 128c + 16c + 8c (2^258 ≡ 152 mod p); the operand never
// exceeds ~2^55, so the shifts cannot overflow.
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
// their masks — deep inside the 2^46 loose domain.
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

// Column sums c[0..11] (low halves plus 9-bit-realigned high halves)
// reduced mod p: columns 6..11 wrap by 152, then one carry pass.
inline Fe4 reduce12(const __m256i lo[12], const __m256i hi[12]) {
  Fe4 r;
#pragma GCC unroll 6
  for (int m = 0; m < 6; ++m) {
    const __m256i c =
        _mm256_add_epi64(lo[m], _mm256_slli_epi64(hi[m], 9));
    const __m256i w =
        _mm256_add_epi64(lo[m + 6], _mm256_slli_epi64(hi[m + 6], 9));
    r.h[m] = _mm256_add_epi64(c, times152(w));
  }
  carry6(r);
  return r;
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

/// a + 32p - b with both inputs carried; limbs stay positive and loose.
/// 32p = (2^45 - 608) + (2^45 - 4) * (2^43 + 2^86 + ... + 2^215).
inline Fe4 sub4(const Fe4& a, const Fe4& b) {
  const __m256i bias0 = fe4_set1((1ULL << 45) - 608);
  const __m256i bias = fe4_set1((1ULL << 45) - 4);
  Fe4 r;
  r.h[0] = _mm256_add_epi64(a.h[0], _mm256_sub_epi64(bias0, b.h[0]));
#pragma GCC unroll 5
  for (int i = 1; i < 6; ++i) {
    r.h[i] = _mm256_add_epi64(a.h[i], _mm256_sub_epi64(bias, b.h[i]));
  }
  return r;
}

/// Lane-sliced schoolbook multiply. vpmadd52luq accumulates the low 52
/// bits of each 104-bit partial product into its column; the high half
/// lands one limb up, off the 43-bit grid by 52 - 43 = 9 bits, so high
/// halves accumulate separately and shift into place once per column.
inline Fe4 mul4(const Fe4& f, const Fe4& g) {
  __m256i lo[12], hi[12];
#pragma GCC unroll 12
  for (int c = 0; c < 12; ++c) lo[c] = hi[c] = _mm256_setzero_si256();
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) {
#pragma GCC unroll 6
    for (int j = 0; j < 6; ++j) {
      lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], f.h[i], g.h[j]);
      hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], f.h[i], g.h[j]);
    }
  }
  return internal::reduce12(lo, hi);
}

/// f * s for small s (s < 2^17, e.g. the ladder's 121665): the exact
/// 64-bit products (< 2^63) come from vpmullq and one carry pass
/// finishes — no wrap fold, since no column reaches limb 6.
inline Fe4 mul_small4(const Fe4& f, std::uint32_t s) {
  const __m256i vs = fe4_set1(s);
  Fe4 r;
#pragma GCC unroll 6
  for (int i = 0; i < 6; ++i) r.h[i] = _mm256_mullo_epi64(f.h[i], vs);
  internal::carry6(r);
  return r;
}

}  // namespace shield5g::crypto::fe25519ifma

#endif  // __AVX512IFMA__ && __AVX512VL__ && __AVX512DQ__
