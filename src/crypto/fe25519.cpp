// Constant-time inversion in GF(2^255 - 19): Bernstein–Yang safegcd
// ("Fast constant-time gcd computation and modular inversion", 2019) in
// the layout of libsecp256k1's modinv64.
//
// Values are signed-62 limbs, v[0] + v[1] 2^62 + ... + v[4] 2^248, so
// p = -19 + 128 * 2^248. Ten rounds of 59 divsteps (590, the bound for
// 256-bit inputs) each build a 2x2 transition matrix from the low limbs
// of (f, g) alone, then apply it to (f, g) and to the Bezout pair
// (d, e); one normalize at the end maps d into [0, p). Inside a round
// the matrix rows ride packed two entries to a word (divsteps_packed),
// which cuts the divstep loop's ops by a quarter. The loop count
// is fixed and every data-dependent choice is a mask: no branch or
// table index depends on the input. Invariants, as in modinv64:
//   * f stays odd and |f|, |g| <= p; f ends at +-1 (or p for input 0)
//     and g at 0.
//   * d and e stay in (-2p, p); the matrix entries in [-2^62, 2^62].
//   * Limbs 0-3 of every value are in [0, 2^62) after an update; limb 4
//     carries the sign.
//
// Out of line on purpose: fe25519.h is also included by the AVX-512
// kernel TU (x25519_ifma.cpp), and an inline definition instantiated
// there could be the copy the linker keeps for every caller.
#include "crypto/fe25519.h"

namespace shield5g::crypto::fe25519 {

namespace {

using I128 = __int128;

constexpr std::uint64_t kMask62 = ~0ULL >> 2;

struct Signed62 {
  std::int64_t v[5];
};

// p in signed-62 limbs, and p^-1 mod 2^62.
constexpr Signed62 kP{{-19, 0, 0, 0, 128}};
constexpr std::uint64_t kPInv62 = 0x39435e50d79435e5ULL;

// A divstep transition matrix: after n steps from (f, g),
// 2^n (f', g') = (u f + v g, q f + r g). divsteps_59 returns its matrix
// scaled to 2^62, which the updates divide out.
struct Trans2x2 {
  std::int64_t u, v, q, r;
};

std::uint64_t low62(I128 c) { return static_cast<std::uint64_t>(c) & kMask62; }

// n <= 30 divsteps from the identity matrix on the low bits of (f, g),
// which advance in place; returns the new zeta = -(delta + 1/2). A step
// with zeta < 0 and g odd is (zeta, f, g) <- (-zeta - 2, g, (g - f) / 2);
// with only g odd, (zeta - 1, f, (g + f) / 2); otherwise (zeta - 1, f,
// g / 2). Both conditions are masks. After i steps the matrix holds
// 2^i (f, g) = (u f0 + v g0, q f0 + r g0) with |u| + |v| and |q| + |r|
// at most 2^i, so the rows ride packed as u + v 2^32 and q + r 2^32:
// every update is linear (negate, add, double), one 64-bit op moves a
// whole row, and each entry stays inside its signed 32-bit half.
std::int64_t divsteps_packed(int n, std::int64_t zeta, std::uint64_t& f,
                             std::uint64_t& g, Trans2x2& t) {
  std::uint64_t uv = 1, qr = 1ULL << 32;
  for (int i = 0; i < n; ++i) {
    // All-ones when zeta < 0, and when g is odd.
    std::uint64_t mask1 = static_cast<std::uint64_t>(zeta >> 63);
    const std::uint64_t mask2 = 0 - (g & 1);
    // Conditionally negated f and (u, v), added to g and (q, r) when g
    // is odd.
    const std::uint64_t x = (f ^ mask1) - mask1;
    const std::uint64_t y = (uv ^ mask1) - mask1;
    g += x & mask2;
    qr += y & mask2;
    // Both conditions: f and (u, v) take the old g and (q, r), recovered
    // as the new ones plus f and (u, v).
    mask1 &= mask2;
    zeta = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(zeta) ^ mask1) - 1);
    f += g & mask1;
    uv += qr & mask1;
    g >>= 1;
    uv <<= 1;
  }
  const std::int64_t u = static_cast<std::int32_t>(uv);
  const std::int64_t q = static_cast<std::int32_t>(qr);
  t.u = u;
  t.v = (static_cast<std::int64_t>(uv) - u) >> 32;
  t.q = q;
  t.r = (static_cast<std::int64_t>(qr) - q) >> 32;
  return zeta;
}

// 59 divsteps on the low 64 bits of (f, g) as 30 + 29 packed ones; the
// product of the two matrices, times 2^3, is the 2^62-scaled matrix
// update_de_62 and update_fg_62 divide out (entries at most 2^62).
std::int64_t divsteps_59(std::int64_t zeta, std::uint64_t f0,
                         std::uint64_t g0, Trans2x2& t) {
  std::uint64_t f = f0, g = g0;
  Trans2x2 a{}, b{};
  zeta = divsteps_packed(30, zeta, f, g, a);
  zeta = divsteps_packed(29, zeta, f, g, b);
  t.u = 8 * (b.u * a.u + b.v * a.q);
  t.v = 8 * (b.u * a.v + b.v * a.r);
  t.q = 8 * (b.q * a.u + b.r * a.q);
  t.r = 8 * (b.q * a.v + b.r * a.r);
  return zeta;
}

// (d, e) <- t (d, e) / 2^62 mod p. The multiples (md, me) of p added
// first clear the low 62 bits so the division is exact, and the sign
// terms keep both results in (-2p, p).
void update_de_62(Signed62& d, Signed62& e, const Trans2x2& t) {
  const std::int64_t d0 = d.v[0], d1 = d.v[1], d2 = d.v[2], d3 = d.v[3],
                     d4 = d.v[4];
  const std::int64_t e0 = e.v[0], e1 = e.v[1], e2 = e.v[2], e3 = e.v[3],
                     e4 = e.v[4];
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  // md, me start as [u, q] when d is negative plus [v, r] when e is.
  const std::int64_t sd = d4 >> 63, se = e4 >> 63;
  std::int64_t md = (u & sd) + (v & se);
  std::int64_t me = (q & sd) + (r & se);
  I128 cd = static_cast<I128>(u) * d0 + static_cast<I128>(v) * e0;
  I128 ce = static_cast<I128>(q) * d0 + static_cast<I128>(r) * e0;
  md -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(cd) +
       static_cast<std::uint64_t>(md)) & kMask62);
  me -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(ce) +
       static_cast<std::uint64_t>(me)) & kMask62);
  cd += static_cast<I128>(kP.v[0]) * md;
  ce += static_cast<I128>(kP.v[0]) * me;
  cd >>= 62;  // the low 62 bits are zero now
  ce >>= 62;
  // p's limbs 1-3 are zero, so only limb 4 adds md, me again.
  cd += static_cast<I128>(u) * d1 + static_cast<I128>(v) * e1;
  ce += static_cast<I128>(q) * d1 + static_cast<I128>(r) * e1;
  d.v[0] = static_cast<std::int64_t>(low62(cd));
  e.v[0] = static_cast<std::int64_t>(low62(ce));
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<I128>(u) * d2 + static_cast<I128>(v) * e2;
  ce += static_cast<I128>(q) * d2 + static_cast<I128>(r) * e2;
  d.v[1] = static_cast<std::int64_t>(low62(cd));
  e.v[1] = static_cast<std::int64_t>(low62(ce));
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<I128>(u) * d3 + static_cast<I128>(v) * e3;
  ce += static_cast<I128>(q) * d3 + static_cast<I128>(r) * e3;
  d.v[2] = static_cast<std::int64_t>(low62(cd));
  e.v[2] = static_cast<std::int64_t>(low62(ce));
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<I128>(u) * d4 + static_cast<I128>(v) * e4 +
        static_cast<I128>(kP.v[4]) * md;
  ce += static_cast<I128>(q) * d4 + static_cast<I128>(r) * e4 +
        static_cast<I128>(kP.v[4]) * me;
  d.v[3] = static_cast<std::int64_t>(low62(cd));
  e.v[3] = static_cast<std::int64_t>(low62(ce));
  cd >>= 62;
  ce >>= 62;
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// (f, g) <- t (f, g) / 2^62; exact, since the divsteps cleared the low
// 62 bits of both products.
void update_fg_62(Signed62& f, Signed62& g, const Trans2x2& t) {
  const std::int64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                     f4 = f.v[4];
  const std::int64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3],
                     g4 = g.v[4];
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  I128 cf = static_cast<I128>(u) * f0 + static_cast<I128>(v) * g0;
  I128 cg = static_cast<I128>(q) * f0 + static_cast<I128>(r) * g0;
  cf >>= 62;
  cg >>= 62;
  cf += static_cast<I128>(u) * f1 + static_cast<I128>(v) * g1;
  cg += static_cast<I128>(q) * f1 + static_cast<I128>(r) * g1;
  f.v[0] = static_cast<std::int64_t>(low62(cf));
  g.v[0] = static_cast<std::int64_t>(low62(cg));
  cf >>= 62;
  cg >>= 62;
  cf += static_cast<I128>(u) * f2 + static_cast<I128>(v) * g2;
  cg += static_cast<I128>(q) * f2 + static_cast<I128>(r) * g2;
  f.v[1] = static_cast<std::int64_t>(low62(cf));
  g.v[1] = static_cast<std::int64_t>(low62(cg));
  cf >>= 62;
  cg >>= 62;
  cf += static_cast<I128>(u) * f3 + static_cast<I128>(v) * g3;
  cg += static_cast<I128>(q) * f3 + static_cast<I128>(r) * g3;
  f.v[2] = static_cast<std::int64_t>(low62(cf));
  g.v[2] = static_cast<std::int64_t>(low62(cg));
  cf >>= 62;
  cg >>= 62;
  cf += static_cast<I128>(u) * f4 + static_cast<I128>(v) * g4;
  cg += static_cast<I128>(q) * f4 + static_cast<I128>(r) * g4;
  f.v[3] = static_cast<std::int64_t>(low62(cf));
  g.v[3] = static_cast<std::int64_t>(low62(cg));
  cf >>= 62;
  cg >>= 62;
  f.v[4] = static_cast<std::int64_t>(cf);
  g.v[4] = static_cast<std::int64_t>(cg);
}

// r in (-2p, p) -> [0, p), negated first when `sign` (f's top limb) is
// negative: add p if r < 0, negate, propagate, add p if still negative,
// propagate. Every choice is a mask.
void normalize_62(Signed62& r, std::int64_t sign) {
  std::int64_t r0 = r.v[0], r1 = r.v[1], r2 = r.v[2], r3 = r.v[3],
               r4 = r.v[4];
  constexpr auto kM62 = static_cast<std::int64_t>(kMask62);
  std::int64_t add = r4 >> 63;
  r0 += kP.v[0] & add;
  r4 += kP.v[4] & add;
  const std::int64_t neg = sign >> 63;
  r0 = (r0 ^ neg) - neg;
  r1 = (r1 ^ neg) - neg;
  r2 = (r2 ^ neg) - neg;
  r3 = (r3 ^ neg) - neg;
  r4 = (r4 ^ neg) - neg;
  r1 += r0 >> 62; r0 &= kM62;
  r2 += r1 >> 62; r1 &= kM62;
  r3 += r2 >> 62; r2 &= kM62;
  r4 += r3 >> 62; r3 &= kM62;
  add = r4 >> 63;
  r0 += kP.v[0] & add;
  r4 += kP.v[4] & add;
  r1 += r0 >> 62; r0 &= kM62;
  r2 += r1 >> 62; r1 &= kM62;
  r3 += r2 >> 62; r2 &= kM62;
  r4 += r3 >> 62; r3 &= kM62;
  r.v[0] = r0;
  r.v[1] = r1;
  r.v[2] = r2;
  r.v[3] = r3;
  r.v[4] = r4;
}

}  // namespace

Fe fe_invert(const Fe& z) {
  // Canonical input in [0, p): p itself becomes 0, so 1/0 = 0 holds for
  // every representative of zero.
  std::uint64_t w[4];
  fe_to_words(w, z);
  Signed62 g{{static_cast<std::int64_t>(w[0] & kMask62),
              static_cast<std::int64_t>(((w[0] >> 62) | (w[1] << 2)) & kMask62),
              static_cast<std::int64_t>(((w[1] >> 60) | (w[2] << 4)) & kMask62),
              static_cast<std::int64_t>(((w[2] >> 58) | (w[3] << 6)) & kMask62),
              static_cast<std::int64_t>(w[3] >> 56)}};
  Signed62 d{{0, 0, 0, 0, 0}}, e{{1, 0, 0, 0, 0}}, f = kP;
  std::int64_t zeta = -1;  // delta = 1/2
  for (int i = 0; i < 10; ++i) {
    Trans2x2 t{};
    zeta = divsteps_59(zeta, static_cast<std::uint64_t>(f.v[0]),
                       static_cast<std::uint64_t>(g.v[0]), t);
    update_de_62(d, e, t);
    update_fg_62(f, g, t);
  }
  // g is 0 and f is +-1 (or p, when z = 0 and d stayed 0): d is +-1/z.
  normalize_62(d, f.v[4]);
  const auto d0 = static_cast<std::uint64_t>(d.v[0]);
  const auto d1 = static_cast<std::uint64_t>(d.v[1]);
  const auto d2 = static_cast<std::uint64_t>(d.v[2]);
  const auto d3 = static_cast<std::uint64_t>(d.v[3]);
  const auto d4 = static_cast<std::uint64_t>(d.v[4]);
  const std::uint64_t out[4] = {d0 | (d1 << 62), (d1 >> 2) | (d2 << 60),
                                (d2 >> 4) | (d3 << 58), (d3 >> 6) | (d4 << 56)};
  return fe_from_words(out);
}

}  // namespace shield5g::crypto::fe25519
