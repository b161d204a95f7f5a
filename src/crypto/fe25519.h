// Field arithmetic in GF(2^255 - 19), five 51-bit limbs, little-endian.
//
// Shared by the Montgomery ladder (x25519.cpp) and the fixed-base
// Edwards comb (x25519_comb.cpp). Header-only so both translation units
// inline the limb arithmetic; only the inversion lives in fe25519.cpp.
//
// Range discipline: fe_mul / fe_sq accept limbs up to 2^54 and return
// carried values (< 2^51 + eps). fe_add of two carried values stays
// under 2^52.1; fe_sub of such sums stays under 2^53.2 — both safe as
// multiplier inputs.
#pragma once

#include <array>
#include <cstdint>

namespace shield5g::crypto::fe25519 {

using Fe = std::array<std::uint64_t, 5>;
using U128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

inline Fe fe_zero() { return Fe{0, 0, 0, 0, 0}; }
inline Fe fe_one() { return Fe{1, 0, 0, 0, 0}; }
inline Fe fe_from_u64(std::uint64_t v) { return Fe{v, 0, 0, 0, 0}; }

// Splits four little-endian 64-bit words (a value below 2^255) into
// carried 51-bit limbs.
inline Fe fe_from_words(const std::uint64_t w[4]) {
  Fe h;
  h[0] = w[0] & kMask51;
  h[1] = ((w[0] >> 51) | (w[1] << 13)) & kMask51;
  h[2] = ((w[1] >> 38) | (w[2] << 26)) & kMask51;
  h[3] = ((w[2] >> 25) | (w[3] << 39)) & kMask51;
  h[4] = (w[3] >> 12) & kMask51;
  return h;
}

inline Fe fe_load(const std::uint8_t* s) {
  std::uint64_t w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = 0;
    for (int j = 0; j < 8; ++j) {
      w[i] |= static_cast<std::uint64_t>(s[8 * i + j]) << (8 * j);
    }
  }
  w[3] &= 0x7fffffffffffffffULL;  // RFC 7748: mask the top bit of u
  return fe_from_words(w);
}

// The canonical value in [0, p) as four little-endian 64-bit words.
inline void fe_to_words(std::uint64_t w[4], const Fe& h_in) {
  Fe t = h_in;
  // Two lossy carry passes bring every limb under 2^52.
  for (int pass = 0; pass < 2; ++pass) {
    t[1] += t[0] >> 51; t[0] &= kMask51;
    t[2] += t[1] >> 51; t[1] &= kMask51;
    t[3] += t[2] >> 51; t[2] &= kMask51;
    t[4] += t[3] >> 51; t[3] &= kMask51;
    t[0] += 19 * (t[4] >> 51); t[4] &= kMask51;
  }
  // Canonicalize into [0, p).
  t[0] += 19;
  t[1] += t[0] >> 51; t[0] &= kMask51;
  t[2] += t[1] >> 51; t[1] &= kMask51;
  t[3] += t[2] >> 51; t[2] &= kMask51;
  t[4] += t[3] >> 51; t[3] &= kMask51;
  t[0] += 19 * (t[4] >> 51); t[4] &= kMask51;

  t[0] += (1ULL << 51) - 19;
  t[1] += (1ULL << 51) - 1;
  t[2] += (1ULL << 51) - 1;
  t[3] += (1ULL << 51) - 1;
  t[4] += (1ULL << 51) - 1;

  t[1] += t[0] >> 51; t[0] &= kMask51;
  t[2] += t[1] >> 51; t[1] &= kMask51;
  t[3] += t[2] >> 51; t[2] &= kMask51;
  t[4] += t[3] >> 51; t[3] &= kMask51;
  t[4] &= kMask51;

  w[0] = t[0] | (t[1] << 51);
  w[1] = (t[1] >> 13) | (t[2] << 38);
  w[2] = (t[2] >> 26) | (t[3] << 25);
  w[3] = (t[3] >> 39) | (t[4] << 12);
}

inline void fe_store(std::uint8_t* s, const Fe& h) {
  std::uint64_t w[4];
  fe_to_words(w, h);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      s[8 * i + j] = static_cast<std::uint8_t>(w[i] >> (8 * j));
    }
  }
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r[i] = a[i] + b[i];
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 2p - b keeps limbs positive; inputs are < 2^52 after carries.
  Fe r;
  r[0] = a[0] + ((1ULL << 52) - 38) - b[0];
  for (int i = 1; i < 5; ++i) r[i] = a[i] + ((1ULL << 52) - 2) - b[i];
  return r;
}

inline Fe fe_neg(const Fe& a) {
  // 8p - a: tolerates limbs up to ~2^54, i.e. raw fe_sub/fe_add outputs
  // as well as carried values (fe_sub's 2p offset would underflow).
  Fe r;
  r[0] = ((1ULL << 54) - 152) - a[0];
  for (int i = 1; i < 5; ++i) r[i] = ((1ULL << 54) - 8) - a[i];
  return r;
}

inline void fe_carry(Fe& r, U128 t0, U128 t1, U128 t2, U128 t3, U128 t4) {
  std::uint64_t c;
  c = static_cast<std::uint64_t>(t0 >> 51); t0 &= kMask51; t1 += c;
  c = static_cast<std::uint64_t>(t1 >> 51); t1 &= kMask51; t2 += c;
  c = static_cast<std::uint64_t>(t2 >> 51); t2 &= kMask51; t3 += c;
  c = static_cast<std::uint64_t>(t3 >> 51); t3 &= kMask51; t4 += c;
  c = static_cast<std::uint64_t>(t4 >> 51); t4 &= kMask51;
  t0 += static_cast<U128>(19) * c;
  c = static_cast<std::uint64_t>(t0 >> 51); t0 &= kMask51; t1 += c;
  r[0] = static_cast<std::uint64_t>(t0);
  r[1] = static_cast<std::uint64_t>(t1);
  r[2] = static_cast<std::uint64_t>(t2);
  r[3] = static_cast<std::uint64_t>(t3);
  r[4] = static_cast<std::uint64_t>(t4);
}

inline Fe fe_mul(const Fe& f, const Fe& g) {
  const U128 f0 = f[0], f1 = f[1], f2 = f[2], f3 = f[3], f4 = f[4];
  const std::uint64_t g0 = g[0], g1 = g[1], g2 = g[2], g3 = g[3], g4 = g[4];
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                      g4_19 = 19 * g4;
  const U128 t0 = f0 * g0 + f1 * g4_19 + f2 * g3_19 + f3 * g2_19 + f4 * g1_19;
  const U128 t1 = f0 * g1 + f1 * g0 + f2 * g4_19 + f3 * g3_19 + f4 * g2_19;
  const U128 t2 = f0 * g2 + f1 * g1 + f2 * g0 + f3 * g4_19 + f4 * g3_19;
  const U128 t3 = f0 * g3 + f1 * g2 + f2 * g1 + f3 * g0 + f4 * g4_19;
  const U128 t4 = f0 * g4 + f1 * g3 + f2 * g2 + f3 * g1 + f4 * g0;
  Fe r;
  fe_carry(r, t0, t1, t2, t3, t4);
  return r;
}

// Dedicated squaring: 15 wide multiplies instead of the 25 a general
// fe_mul(f, f) spends. The ladder is roughly 44% squarings, so this is
// the single biggest field-level win.
inline Fe fe_sq(const Fe& f) {
  const std::uint64_t f0 = f[0], f1 = f[1], f2 = f[2], f3 = f[3], f4 = f[4];
  const std::uint64_t f0_2 = f0 * 2, f1_2 = f1 * 2;
  const std::uint64_t f1_38 = f1 * 38, f2_38 = f2 * 38, f3_38 = f3 * 38;
  const std::uint64_t f3_19 = f3 * 19, f4_19 = f4 * 19;
  const U128 t0 = static_cast<U128>(f0) * f0 + static_cast<U128>(f1_38) * f4 +
                  static_cast<U128>(f2_38) * f3;
  const U128 t1 = static_cast<U128>(f0_2) * f1 + static_cast<U128>(f2_38) * f4 +
                  static_cast<U128>(f3_19) * f3;
  const U128 t2 = static_cast<U128>(f0_2) * f2 + static_cast<U128>(f1) * f1 +
                  static_cast<U128>(f3_38) * f4;
  const U128 t3 = static_cast<U128>(f0_2) * f3 + static_cast<U128>(f1_2) * f2 +
                  static_cast<U128>(f4_19) * f4;
  const U128 t4 = static_cast<U128>(f0_2) * f4 + static_cast<U128>(f1_2) * f3 +
                  static_cast<U128>(f2) * f2;
  Fe r;
  fe_carry(r, t0, t1, t2, t3, t4);
  return r;
}

inline Fe fe_mul_small(const Fe& f, std::uint64_t s) {
  U128 t[5];
  for (int i = 0; i < 5; ++i) t[i] = static_cast<U128>(f[i]) * s;
  Fe r;
  fe_carry(r, t[0], t[1], t[2], t[3], t[4]);
  return r;
}

inline Fe fe_sqn(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = fe_sq(f);
  return f;
}

/// 1/z, and 0 for z = 0 (callers rely on fe_invert(0) = 0): a
/// constant-time safegcd inversion (fe25519.cpp). Accepts limbs up to
/// 2^54 and returns carried limbs. Defined out of line, so the
/// AVX-512 kernel TU, which includes this header, never emits a copy.
Fe fe_invert(const Fe& z);

// z^(2^252 - 3) = z^((p-5)/8); the exponentiation behind square roots
// in a field where p = 5 (mod 8).
inline Fe fe_pow22523(const Fe& z) {
  Fe t0 = fe_sq(z);                            // z^2
  Fe t1 = fe_mul(z, fe_sqn(t0, 2));            // z^9
  t0 = fe_mul(t0, t1);                         // z^11
  t0 = fe_sq(t0);                              // z^22
  t0 = fe_mul(t1, t0);                         // z^31 = z^(2^5-1)
  t1 = fe_sqn(t0, 5); t0 = fe_mul(t1, t0);     // z^(2^10-1)
  t1 = fe_sqn(t0, 10); t1 = fe_mul(t1, t0);    // z^(2^20-1)
  Fe t2 = fe_sqn(t1, 20); t1 = fe_mul(t2, t1); // z^(2^40-1)
  t1 = fe_sqn(t1, 10); t0 = fe_mul(t1, t0);    // z^(2^50-1)
  t1 = fe_sqn(t0, 50); t1 = fe_mul(t1, t0);    // z^(2^100-1)
  t2 = fe_sqn(t1, 100); t1 = fe_mul(t2, t1);   // z^(2^200-1)
  t1 = fe_sqn(t1, 50); t0 = fe_mul(t1, t0);    // z^(2^250-1)
  t0 = fe_sqn(t0, 2);                          // z^(2^252-4)
  return fe_mul(t0, z);                        // z^(2^252-3)
}

inline void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;  // all-ones if swap == 1
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a[i] ^ b[i]);
    a[i] ^= x;
    b[i] ^= x;
  }
}

// f = g when move == 1, unchanged when move == 0; no data-dependent
// branches (table lookups in the comb are scalar-indexed).
inline void fe_cmov(Fe& f, const Fe& g, std::uint64_t move) {
  const std::uint64_t mask = 0 - move;
  for (int i = 0; i < 5; ++i) {
    f[i] ^= mask & (f[i] ^ g[i]);
  }
}

// Canonical equality without early exit (and without memcmp, which the
// constant-time lint rejects on principle).
inline bool fe_eq(const Fe& a, const Fe& b) {
  std::uint8_t sa[32], sb[32];
  fe_store(sa, a);
  fe_store(sb, b);
  std::uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= static_cast<std::uint8_t>(sa[i] ^ sb[i]);
  return acc == 0;
}

inline bool fe_is_zero(const Fe& a) { return fe_eq(a, fe_zero()); }

}  // namespace shield5g::crypto::fe25519
