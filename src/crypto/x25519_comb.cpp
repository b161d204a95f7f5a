#include "crypto/x25519_comb.h"

#include <array>
#include <memory>

#include "common/secret.h"
#include "crypto/fe25519.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto::detail {

namespace {

using namespace fe25519;

// Extended twisted-Edwards coordinates (X:Y:Z:T), T = XY/Z, a = -1.
struct Ext {
  Fe x, y, z, t;
};

// Projective precomputed form used only while building: (Y+X, Y-X, Z, 2d*T).
struct Cached {
  Fe yplusx, yminusx, z, t2d;
};

// Affine precomputed form of a table entry: (y+x, y-x, 2d*x*y) with
// Z = 1 implicit. Three field elements instead of four — each entry is
// 16 padded words instead of 20, so the scan streams 20% fewer bytes,
// and the mixed addition saves the Z multiplication.
struct Niels {
  Fe yplusx, yminusx, t2d;
};

Ext ext_identity() { return Ext{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

// Curve constants, computed once from first principles rather than
// transcribed limb tables: d = -121665/121666, sqrt(-1) = 2^((p-1)/4)
// (2 is a non-residue since p = 5 mod 8).
struct Constants {
  Fe d;
  Fe d2;
  Fe sqrtm1;
};

const Constants& constants() {
  static const Constants k = [] {
    Constants c;
    c.d = fe_neg(fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
    c.d2 = fe_add(c.d, c.d);
    const Fe two = fe_from_u64(2);
    c.sqrtm1 = fe_mul(fe_sq(fe_pow22523(two)), two);  // 2^(2(2^252-3)+1)
    return c;
  }();
  return k;
}

Cached to_cached(const Ext& p) {
  return Cached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                fe_mul(p.t, constants().d2)};
}

// r = p + q (unified a = -1 addition; handles doubling and identity).
Ext ext_add(const Ext& p, const Cached& q) {
  const Fe a = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe dd = fe_mul(p.z, q.z);
  const Fe d2v = fe_add(dd, dd);
  const Fe e = fe_sub(a, b);
  const Fe f = fe_sub(d2v, c);
  const Fe g = fe_add(d2v, c);
  const Fe h = fe_add(a, b);
  return Ext{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// r = p + q for affine q: the q.z multiplication collapses to a single
// limb-wise doubling of p.z. Still unified — identity and doubling fall
// out of the same formulas.
Ext ext_madd(const Ext& p, const Niels& q) {
  const Fe a = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d2v = fe_add(p.z, p.z);
  const Fe e = fe_sub(a, b);
  const Fe f = fe_sub(d2v, c);
  const Fe g = fe_add(d2v, c);
  const Fe h = fe_add(a, b);
  return Ext{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// r = 2p (dbl-2008-hwcd for a = -1, keeping T for the next addition).
Ext ext_dbl(const Ext& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe h = fe_add(a, b);
  const Fe xy = fe_sq(fe_add(p.x, p.y));
  const Fe e = fe_sub(h, xy);
  const Fe g = fe_sub(a, b);
  const Fe f = fe_add(c, g);
  return Ext{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// x with x^2 = num/den, or false when num/den is a non-residue.
bool sqrt_ratio(const Fe& num, const Fe& den, Fe& out) {
  const Fe den2 = fe_sq(den);
  const Fe den3 = fe_mul(den2, den);
  const Fe den7 = fe_mul(fe_sq(den3), den);
  Fe x = fe_mul(fe_mul(num, den3), fe_pow22523(fe_mul(num, den7)));
  const Fe chk = fe_mul(fe_sq(x), den);
  if (fe_eq(chk, num)) {
    out = x;
    return true;
  }
  if (fe_eq(chk, fe_neg(num))) {
    out = fe_mul(x, constants().sqrtm1);
    return true;
  }
  return false;
}

// Lifts Montgomery u to an edwards25519 point: y = (u-1)/(u+1),
// x = sqrt((y^2-1)/(d*y^2+1)). The sign of x is irrelevant because
// u(k*P) = u(k*(-P)). Returns false for twist points and u = -1.
bool lift(const std::uint8_t* u32, Ext& out) {
  const Fe u = fe_load(u32);
  const Fe up1 = fe_add(u, fe_one());
  if (fe_is_zero(up1)) return false;  // u = -1: no finite Edwards image
  const Fe y = fe_mul(fe_sub(u, fe_one()), fe_invert(up1));
  const Fe y2 = fe_sq(y);
  const Fe num = fe_sub(y2, fe_one());
  const Fe den = fe_add(fe_mul(constants().d, y2), fe_one());
  if (fe_is_zero(den)) return false;
  Fe x;
  if (!sqrt_ratio(num, den, x)) return false;  // twist point
  Ext p{x, y, fe_one(), fe_mul(x, y)};
  // Defensive on-curve check: -x^2 + y^2 == 1 + d x^2 y^2.
  const Fe x2 = fe_sq(p.x);
  const Fe lhs = fe_sub(fe_sq(p.y), x2);
  const Fe rhs = fe_add(fe_one(), fe_mul(constants().d, fe_mul(x2, fe_sq(p.y))));
  if (!fe_eq(lhs, rhs)) return false;
  out = p;
  return true;
}

// Recodes the 64 nibbles of a clamped scalar into signed digits in
// [-8, 8] with the same radix-16 value. Halving the digit range halves
// the table row the constant-time scan has to stream. Clamping keeps
// the top nibble <= 7, so the final carry is absorbed by digit 63
// (at most 8) and never overflows.
void signed_digits(const std::uint8_t* scalar32, std::int8_t out[64]) {
  unsigned carry = 0;
  for (int i = 0; i < 63; ++i) {
    const unsigned v = ((scalar32[i / 2] >> (4 * (i & 1))) & 0xf) + carry;
    carry = (v + 8) >> 4;  // 1 when v >= 8
    out[i] = static_cast<std::int8_t>(static_cast<int>(v) -
                                      static_cast<int>(carry << 4));
  }
  out[63] = static_cast<std::int8_t>(((scalar32[31] >> 4) & 0xf) + carry);
}

using Row = std::uint64_t[kCombRowEntries][kCombEntryWords];

// Constant-time select of signed digit `digit`'s entry from one window
// row: every entry is read and masked in or out (digit 0 leaves the
// identity (1, 1, 0)), then a negative digit swaps y+x and y-x and
// negates 2dxy under a mask. The 16-word mask-and-OR vectorizes at -O2,
// and unrolled it keeps the selected words in registers.
Niels comb_select(const Row& row, std::int64_t digit) {
  const std::int64_t m = digit >> 63;  // arithmetic: all-ones when negative
  const std::uint64_t mag = static_cast<std::uint64_t>((digit ^ m) - m);
  const std::uint64_t neg = static_cast<std::uint64_t>(m) & 1;
  std::uint64_t w[kCombEntryWords] = {};
  for (std::uint64_t j = 1; j <= kCombRowEntries; ++j) {
    const std::uint64_t diff = mag ^ j;
    const std::uint64_t mask = ((diff | (0 - diff)) >> 63) - 1;  // mag == j
#pragma GCC unroll 16
    for (int k = 0; k < kCombEntryWords; ++k) w[k] |= mask & row[j - 1][k];
  }
  const std::uint64_t zero = ((mag | (0 - mag)) >> 63) ^ 1;  // mag == 0
  w[0] |= zero;
  w[1] |= zero;
  Niels n;
  for (int l = 0; l < 5; ++l) {
    n.yplusx[l] = w[3 * l];
    n.yminusx[l] = w[3 * l + 1];
    n.t2d[l] = w[3 * l + 2];
  }
  fe_cswap(neg, n.yplusx, n.yminusx);
  fe_cmov(n.t2d, fe_neg(n.t2d), neg);
  return n;
}

}  // namespace

// 64 nibble windows x signed digits 1..8, in the flat layout of
// x25519_internal.h. Digit 0 is the (implicit) identity and negative
// digits reuse the positive entry with (y+x, y-x) swapped and 2dxy
// negated. Affine entries keep the whole table at 64 KiB — small enough
// that scanning a window row stays in cache even with a working set of
// several tables.
struct CombTable {
  Row entry[kCombWindows];
};

void CombTableDeleter::operator()(CombTable* t) const noexcept { delete t; }

CombTablePtr comb_build(const std::uint8_t* u32) {
  Ext base;
  if (!lift(u32, base)) return nullptr;

  // Phase 1: the projective run, identical group math to the evaluator's
  // unified additions.
  auto pts = std::make_unique<std::array<Ext, 64 * 8>>();
  Ext window_base = base;  // 16^i * P
  for (int i = 0; i < 64; ++i) {
    (*pts)[i * 8] = window_base;
    const Cached cb = to_cached(window_base);
    Ext run = window_base;
    for (int j = 2; j <= 8; ++j) {
      run = ext_add(run, cb);
      (*pts)[i * 8 + (j - 1)] = run;
    }
    if (i < 63) {
      window_base = ext_dbl(ext_dbl(ext_dbl(ext_dbl(window_base))));
    }
  }

  // Phase 2: normalize all 512 points to Z = 1 with one field inversion
  // (Montgomery's batch trick). The complete a = -1 formulas never
  // produce Z = 0, so every prefix product is invertible.
  auto prefix = std::make_unique<std::array<Fe, 64 * 8>>();
  Fe run = fe_one();
  for (int k = 0; k < 64 * 8; ++k) {
    (*prefix)[k] = run;
    run = fe_mul(run, (*pts)[k].z);
  }
  Fe inv = fe_invert(run);

  CombTablePtr table(new CombTable);
  for (int k = 64 * 8 - 1; k >= 0; --k) {
    const Fe zinv = fe_mul(inv, (*prefix)[k]);
    inv = fe_mul(inv, (*pts)[k].z);
    const Ext& p = (*pts)[k];
    const Fe yplusx = fe_mul(fe_add(p.y, p.x), zinv);
    const Fe yminusx = fe_mul(fe_sub(p.y, p.x), zinv);
    const Fe t2d = fe_mul(fe_mul(p.t, zinv), constants().d2);
    std::uint64_t* w = table->entry[k / 8][k % 8];
    for (int l = 0; l < 5; ++l) {
      w[3 * l] = yplusx[l];
      w[3 * l + 1] = yminusx[l];
      w[3 * l + 2] = t2d[l];
    }
    w[kCombEntryWords - 1] = 0;
  }
  return table;
}

void comb_eval_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        Fe& num, Fe& den) {
  if (x25519_ladder_is_ifma()) {
    comb_ifma_fraction(table, scalar32, num, den);
  } else {
    comb_portable_fraction(table, scalar32, num, den);
  }
}

void comb_portable_fraction(const CombTable& table,
                            const std::uint8_t* scalar32, Fe& num, Fe& den) {
  std::int8_t digits[kCombWindows];
  signed_digits(scalar32, digits);

  Ext acc = ext_identity();
  for (int i = 0; i < kCombWindows; ++i) {
    acc = ext_madd(acc, comb_select(table.entry[i], digits[i]));
  }
  // The digits recode the secret scalar, which x25519() wipes too.
  secure_zero(digits, sizeof(digits));
  // Back to Montgomery: u = (Z+Y)/(Z-Y), left as a fraction so callers
  // can batch the inversion across multiple evaluations.
  num = fe_add(acc.z, acc.y);
  den = fe_sub(acc.z, acc.y);
}

void comb_ifma_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        Fe& num, Fe& den) {
  std::int8_t digits[kCombWindows];
  signed_digits(scalar32, digits);
  x25519_ifma_comb_fraction(&table.entry[0][0][0], digits, num, den);
  secure_zero(digits, sizeof(digits));
}

}  // namespace shield5g::crypto::detail
