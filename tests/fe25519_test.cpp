// Property tests for the fe25519 carry-range discipline, against an
// independent base-2^64 bignum oracle.
//
// The field header documents a contract the ladder and the comb lean
// on: fe_mul / fe_sq accept limbs up to 2^54 and return carried values
// (< 2^51 + eps); fe_add of two carried values stays under 2^52.1 and
// fe_sub of such sums under 2^53.2, both safe as multiplier inputs.
// These tests drive randomized limb patterns through every op and check
// both halves of the contract — the numeric value (mod p, via the
// oracle) and the output ranges — for the scalar backend and, through
// the x25519_ifma test hooks, for the AVX-512 IFMA lane backend, whose
// radix-2^43 domain (crypto/fe25519ifma.h) has its own range contract.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/fe25519.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {
namespace {

using fe25519::Fe;
using fe25519::kMask51;

// ---------------------------------------------------------------------
// Oracle: little-endian base-2^64 bignum, wide enough for the 2^259
// values loose limbs can represent and their ~2^518 products.
// ---------------------------------------------------------------------
constexpr int kBigWords = 10;  // 640 bits
using Big = std::array<std::uint64_t, kBigWords>;

Big big_zero() { return Big{}; }

void big_add_shifted(Big& acc, std::uint64_t v, int bit_shift) {
  const int word = bit_shift / 64;
  const int off = bit_shift % 64;
  unsigned __int128 carry = static_cast<unsigned __int128>(v) << off;
  for (int i = word; i < kBigWords && carry != 0; ++i) {
    carry += acc[i];
    acc[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
}

// Value of a limb vector, limbs unreduced: sum a[i] * 2^(51 i).
Big big_from_fe(const Fe& a) {
  Big acc = big_zero();
  for (int i = 0; i < 5; ++i) big_add_shifted(acc, a[i], 51 * i);
  return acc;
}

Big big_mul(const Big& a, const Big& b) {
  Big r = big_zero();
  for (int i = 0; i < kBigWords; ++i) {
    if (a[i] == 0) continue;
    unsigned __int128 carry = 0;
    for (int j = 0; j + i < kBigWords; ++j) {
      carry += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
      r[i + j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }
  return r;
}

bool big_is_zero_above(const Big& a, int words) {
  for (int i = words; i < kBigWords; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

// a >= b over the low `words` words (higher words must be zero in both).
bool big_geq(const Big& a, const Big& b, int words) {
  for (int i = words - 1; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

void big_sub(Big& a, const Big& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < kBigWords; ++i) {
    const unsigned __int128 rhs =
        static_cast<unsigned __int128>(b[i]) + borrow;
    if (a[i] >= rhs) {
      a[i] = static_cast<std::uint64_t>(a[i] - rhs);
      borrow = 0;
    } else {
      a[i] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) + a[i] - rhs);
      borrow = 1;
    }
  }
}

Big big_p() {
  // 2^255 - 19.
  Big p = big_zero();
  p[0] = ~static_cast<std::uint64_t>(18);  // 2^64 - 19
  p[1] = ~static_cast<std::uint64_t>(0);
  p[2] = ~static_cast<std::uint64_t>(0);
  p[3] = 0x7fffffffffffffffULL;
  return p;
}

// Reduce into [0, p) by folding 2^255 ≡ 19 until the value fits 255
// bits, then conditionally subtracting p.
Big big_mod_p(Big a) {
  for (int round = 0; round < 6; ++round) {
    Big lo = big_zero();
    for (int i = 0; i < 4; ++i) lo[i] = a[i];
    lo[3] &= 0x7fffffffffffffffULL;
    Big hi = big_zero();
    for (int i = 0; i < kBigWords - 3; ++i) {
      hi[i] = (a[i + 3] >> 63);
      if (i + 4 < kBigWords) hi[i] |= a[i + 4] << 1;
    }
    if (big_is_zero_above(hi, 0)) {
      a = lo;
      break;
    }
    Big nineteen = big_zero();
    nineteen[0] = 19;
    a = big_mul(hi, nineteen);
    for (int i = 0; i < 4; ++i) big_add_shifted(a, lo[i], 64 * i);
  }
  const Big p = big_p();
  while (big_geq(a, p, kBigWords)) big_sub(a, p);
  return a;
}

// Canonical 32-byte little-endian encoding of a reduced value.
std::array<std::uint8_t, 32> big_bytes(const Big& a) {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

std::array<std::uint8_t, 32> fe_bytes(const Fe& a) {
  std::array<std::uint8_t, 32> out{};
  fe25519::fe_store(out.data(), a);
  return out;
}

// Random limb vector with limbs up to the given bit width (the loose
// domain the mul/sq contract admits is 54 bits).
Fe random_limbs(Rng& rng, int bits) {
  Fe a;
  const std::uint64_t mask =
      bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  for (int i = 0; i < 5; ++i) a[i] = rng.next() & mask;
  return a;
}

// Carried-output ceiling: < 2^51 + eps. The scalar fe_carry adds at
// most a few carry bits into limb 0 (x19 folding), far below 2^16.
constexpr std::uint64_t kCarriedCeil = (1ULL << 51) + (1ULL << 16);

void expect_carried(const Fe& r, const char* what) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_LT(r[i], kCarriedCeil) << what << " limb " << i;
  }
}

TEST(Fe25519, MulMatchesBignumOracleOnLooseInputs) {
  Rng rng(0xFE25519AULL);
  for (int round = 0; round < 500; ++round) {
    const Fe a = random_limbs(rng, 54);
    const Fe b = random_limbs(rng, 54);
    const Fe r = fe25519::fe_mul(a, b);
    expect_carried(r, "fe_mul");
    const Big expect = big_mod_p(big_mul(big_from_fe(a), big_from_fe(b)));
    ASSERT_EQ(fe_bytes(r), big_bytes(expect)) << "round " << round;
  }
}

TEST(Fe25519, SqMatchesMulAndOracleOnLooseInputs) {
  Rng rng(0xFE25519BULL);
  for (int round = 0; round < 500; ++round) {
    const Fe a = random_limbs(rng, 54);
    const Fe r = fe25519::fe_sq(a);
    expect_carried(r, "fe_sq");
    ASSERT_EQ(fe_bytes(r), fe_bytes(fe25519::fe_mul(a, a)));
    const Big expect = big_mod_p(big_mul(big_from_fe(a), big_from_fe(a)));
    ASSERT_EQ(fe_bytes(r), big_bytes(expect)) << "round " << round;
  }
}

TEST(Fe25519, AddSubRangeDisciplineHolds) {
  // fe_add of two carried values stays under 2^52.1; fe_sub of such
  // sums stays under 2^53.2. Both must remain valid fe_mul inputs
  // (≤ 2^54) and preserve the value mod p.
  constexpr std::uint64_t kAddCeil = (1ULL << 52) + (1ULL << 17);
  // 2^53.2 ≈ 2^53 + 2^50.4; allow the documented slack exactly.
  constexpr std::uint64_t kSubCeil = (1ULL << 53) + (1ULL << 51);
  Rng rng(0xFE25519CULL);
  for (int round = 0; round < 500; ++round) {
    // Carried values straight from the multiplier.
    const Fe a = fe25519::fe_mul(random_limbs(rng, 54), random_limbs(rng, 54));
    const Fe b = fe25519::fe_sq(random_limbs(rng, 54));
    const Fe sum = fe25519::fe_add(a, b);
    for (int i = 0; i < 5; ++i) ASSERT_LT(sum[i], kAddCeil);

    const Fe c = fe25519::fe_mul(random_limbs(rng, 54), random_limbs(rng, 54));
    const Fe d = fe25519::fe_sq(random_limbs(rng, 54));
    const Fe sum2 = fe25519::fe_add(c, d);
    const Fe diff = fe25519::fe_sub(sum, sum2);
    for (int i = 0; i < 5; ++i) {
      ASSERT_LT(diff[i], kSubCeil);
      ASSERT_LE(diff[i], (1ULL << 54));  // still a legal fe_mul input
    }

    // Values: sum ≡ a+b, diff ≡ (a+b)-(c+d) (mod p, 2p bias folded out).
    Big sum_expect = big_from_fe(a);
    for (int i = 0; i < 5; ++i) big_add_shifted(sum_expect, b[i], 51 * i);
    ASSERT_EQ(fe_bytes(sum), big_bytes(big_mod_p(sum_expect)));

    // diff + sum2 ≡ sum (mod p) avoids signed bignum arithmetic.
    Big lhs = big_from_fe(diff);
    for (int i = 0; i < 5; ++i) big_add_shifted(lhs, sum2[i], 51 * i);
    ASSERT_EQ(big_bytes(big_mod_p(lhs)),
              big_bytes(big_mod_p(big_from_fe(sum))));
  }
}

TEST(Fe25519, StoreCanonicalizesLooseLimbs) {
  Rng rng(0xFE25519DULL);
  for (int round = 0; round < 500; ++round) {
    const Fe a = random_limbs(rng, 54);
    ASSERT_EQ(fe_bytes(a), big_bytes(big_mod_p(big_from_fe(a))));
  }
}

// ---------------------------------------------------------------------
// The AVX-512 IFMA backend: six 43-bit limbs per lane, four lanes.
// ---------------------------------------------------------------------

bool ifma_testable() {
  return cpu_has_avx512ifma() && detail::x25519_ifma_compiled();
}

TEST(Fe25519, IfmaMulMatchesScalarOnLooseInputs) {
  if (!ifma_testable()) GTEST_SKIP() << "IFMA kernels unavailable";
  Rng rng(0xFE255200ULL);
  for (int round = 0; round < 200; ++round) {
    Fe a[4], b[4], r[4];
    for (int l = 0; l < 4; ++l) {
      a[l] = random_limbs(rng, 54);
      b[l] = random_limbs(rng, 54);
    }
    ASSERT_TRUE(detail::x25519_ifma_mul(a, b, r));
    for (int l = 0; l < 4; ++l) {
      expect_carried(r[l], "ifma mul");
      ASSERT_EQ(fe_bytes(r[l]), fe_bytes(fe25519::fe_mul(a[l], b[l])))
          << "round " << round << " lane " << l;
      const Big expect =
          big_mod_p(big_mul(big_from_fe(a[l]), big_from_fe(b[l])));
      ASSERT_EQ(fe_bytes(r[l]), big_bytes(expect))
          << "round " << round << " lane " << l;
    }
  }
}

using detail::IfmaOp;
using detail::Limbs43;

Big big_from_limbs43(const Limbs43& a) {
  Big acc = big_zero();
  for (int i = 0; i < 6; ++i) big_add_shifted(acc, a[i], 43 * i);
  return acc;
}

std::array<std::uint8_t, 32> limbs43_bytes(const Limbs43& a) {
  return big_bytes(big_mod_p(big_from_limbs43(a)));
}

Limbs43 splat43(std::uint64_t v) { return Limbs43{v, v, v, v, v, v}; }

// mul4's carried output: h1 and h4 may end one above the 43-bit mask.
constexpr std::uint64_t kCarried43 = (1ULL << 43) + 1;
// sub4's documented ceiling, 2^45.6 (< 2^45 + 2^44.1).
constexpr std::uint64_t kSubCeil43 = (1ULL << 45) + (1ULL << 44);

void run_limbs(IfmaOp op, const Limbs43 a[4], const Limbs43 b[4],
               Limbs43 r[4]) {
  ASSERT_TRUE(detail::x25519_ifma_limbs(op, a, b, r));
}

TEST(Fe25519, IfmaAddSubMulSmallRangeEdges) {
  if (!ifma_testable()) GTEST_SKIP() << "IFMA kernels unavailable";
  // Lane 0 sits at the top of the carried domain, lane 1 at zero,
  // lanes 2-3 are random carried values from mul4 itself.
  Rng rng(0xFE255202ULL);
  Limbs43 loose[4], carried[4], zero[4];
  for (int l = 0; l < 4; ++l) {
    zero[l] = splat43(0);
    for (int i = 0; i < 6; ++i) loose[l][i] = rng.next() & ((1ULL << 46) - 1);
  }
  Limbs43 products[4];
  run_limbs(IfmaOp::kMul, loose, loose, products);
  carried[0] = splat43(kCarried43);
  carried[1] = splat43(0);
  carried[2] = products[2];
  carried[3] = products[3];

  // add4: two carried values stay under 2^44.1.
  Limbs43 sum[4];
  run_limbs(IfmaOp::kAdd, carried, carried, sum);
  // sub4: a + 32p - b, both orders, never wraps below zero.
  Limbs43 diff_ab[4], diff_ba[4];
  run_limbs(IfmaOp::kSub, carried, zero, diff_ab);
  run_limbs(IfmaOp::kSub, zero, carried, diff_ba);
  // mul_small4 on sub4's largest outputs: the exact 121665x products
  // (< 2^62.5) must survive carry6.
  Limbs43 small[4];
  run_limbs(IfmaOp::kMulSmall, diff_ab, zero, small);
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_LE(sum[l][i], 2 * kCarried43) << "add lane " << l;
      EXPECT_LT(diff_ab[l][i], kSubCeil43) << "sub lane " << l;
      EXPECT_LT(diff_ba[l][i], kSubCeil43) << "sub lane " << l;
      EXPECT_LE(small[l][i], kCarried43) << "mul_small lane " << l;
    }
    Big twice = big_from_limbs43(carried[l]);
    for (int i = 0; i < 6; ++i) big_add_shifted(twice, carried[l][i], 43 * i);
    EXPECT_EQ(limbs43_bytes(sum[l]), big_bytes(big_mod_p(twice)));
    EXPECT_EQ(limbs43_bytes(diff_ab[l]), limbs43_bytes(carried[l]));
    // diff_ba + a ≡ 0 (mod p).
    Big back = big_from_limbs43(diff_ba[l]);
    for (int i = 0; i < 6; ++i) big_add_shifted(back, carried[l][i], 43 * i);
    EXPECT_EQ(big_bytes(big_mod_p(back)), big_bytes(big_zero()));
    Big k121665 = big_zero();
    k121665[0] = 121665;
    EXPECT_EQ(limbs43_bytes(small[l]),
              big_bytes(big_mod_p(
                  big_mul(big_from_limbs43(diff_ab[l]), k121665))));
  }
}

TEST(Fe25519, IfmaMulMatchesOracleAtLooseCeiling) {
  if (!ifma_testable()) GTEST_SKIP() << "IFMA kernels unavailable";
  // mul4's domain is limbs < 2^46: lane 0 at the ceiling, the rest
  // random below it.
  Rng rng(0xFE255203ULL);
  for (int round = 0; round < 200; ++round) {
    Limbs43 a[4], b[4], r[4];
    a[0] = b[0] = splat43((1ULL << 46) - 1);
    for (int l = 1; l < 4; ++l) {
      for (int i = 0; i < 6; ++i) {
        a[l][i] = rng.next() & ((1ULL << 46) - 1);
        b[l][i] = rng.next() & ((1ULL << 46) - 1);
      }
    }
    run_limbs(IfmaOp::kMul, a, b, r);
    for (int l = 0; l < 4; ++l) {
      for (int i = 0; i < 6; ++i) ASSERT_LE(r[l][i], kCarried43);
      ASSERT_EQ(limbs43_bytes(r[l]),
                big_bytes(big_mod_p(
                    big_mul(big_from_limbs43(a[l]), big_from_limbs43(b[l])))))
          << "round " << round << " lane " << l;
    }
  }
}

// Field ops on oracle values, reduced mod p.
Big big_fadd(Big a, const Big& b) {
  for (int i = 0; i < kBigWords; ++i) big_add_shifted(a, b[i], 64 * i);
  return big_mod_p(a);
}

Big big_fsub(const Big& a, const Big& b) {
  Big r = big_mod_p(a);
  const Big p = big_p();
  for (int i = 0; i < kBigWords; ++i) big_add_shifted(r, p[i], 64 * i);
  big_sub(r, big_mod_p(b));
  return big_mod_p(r);
}

Big big_fmul(const Big& a, const Big& b) { return big_mod_p(big_mul(a, b)); }

TEST(Fe25519, IfmaCombWindowMatchesOracleAtCeiling) {
  if (!ifma_testable()) GTEST_SKIP() << "IFMA kernels unavailable";
  // The IFMA comb's lane chain for one window: the entry's flat words
  // at fe4_from_limbs' 2^52 ceiling (above the carried 2^51 + eps a
  // table holds) in half the rounds, a negative digit's 32p - 2dxy lane
  // in every odd round, and in the first half each accumulator lane at
  // mul4's carried ceiling or at zero (all 16 patterns), which drives
  // Y-X and the final Z+Y / Z-Y to sub4's and add4's ceilings.
  Rng rng(0xFE255204ULL);
  constexpr std::uint64_t kEntryCeil = (1ULL << 52) - 1;
  constexpr std::uint64_t kFeMulCeil = 1ULL << 54;
  for (int round = 0; round < 200; ++round) {
    Limbs43 acc[4];
    for (int l = 0; l < 4; ++l) {
      const std::uint64_t edge = (round >> l) & 1 ? kCarried43 : 0;
      for (int i = 0; i < 6; ++i) {
        acc[l][i] = round < 100 ? edge : rng.next() % (kCarried43 + 1);
      }
    }
    std::uint64_t entry[detail::kCombEntryWords];
    for (int w = 0; w + 1 < detail::kCombEntryWords; ++w) {
      entry[w] = round % 4 < 2 ? kEntryCeil : rng.next() & kEntryCeil;
    }
    entry[detail::kCombEntryWords - 1] = 0;
    const std::uint64_t neg = round & 1;

    Limbs43 sum[4];
    Fe zy[2];
    ASSERT_TRUE(detail::x25519_ifma_comb_window(acc, entry, neg, sum, zy));

    Fe ypx, ymx, t2d;
    for (int i = 0; i < 5; ++i) {
      ypx[i] = entry[3 * i];
      ymx[i] = entry[3 * i + 1];
      t2d[i] = entry[3 * i + 2];
    }
    Big q_ypx = big_from_fe(neg ? ymx : ypx);
    Big q_ymx = big_from_fe(neg ? ypx : ymx);
    Big q_t2d = big_from_fe(t2d);
    if (neg) q_t2d = big_fsub(big_zero(), q_t2d);
    const Big x = big_from_limbs43(acc[0]), y = big_from_limbs43(acc[1]);
    const Big z = big_from_limbs43(acc[2]), t = big_from_limbs43(acc[3]);
    const Big a = big_fmul(big_fadd(y, x), q_ypx);
    const Big b = big_fmul(big_fsub(y, x), q_ymx);
    const Big c = big_fmul(t, q_t2d);
    const Big d = big_fadd(z, z);
    const Big e = big_fsub(a, b), f = big_fsub(d, c);
    const Big g = big_fadd(d, c), h = big_fadd(a, b);
    const Big expect[4] = {big_fmul(e, f), big_fmul(g, h), big_fmul(f, g),
                           big_fmul(e, h)};
    for (int l = 0; l < 4; ++l) {
      for (int i = 0; i < 6; ++i) ASSERT_LE(sum[l][i], kCarried43);
      ASSERT_EQ(limbs43_bytes(sum[l]), big_bytes(expect[l]))
          << "round " << round << " lane " << l;
    }

    // (Z+Y, Z-Y) leave the lanes inside fe_mul's domain, with the
    // right values: fe_mul of the two matches the oracle's product.
    for (int k = 0; k < 2; ++k) {
      for (int i = 0; i < 5; ++i) ASSERT_LE(zy[k][i], kFeMulCeil);
    }
    const Big zpy = big_fadd(z, y), zmy = big_fsub(z, y);
    ASSERT_EQ(fe_bytes(zy[0]), big_bytes(zpy)) << "round " << round;
    ASSERT_EQ(fe_bytes(zy[1]), big_bytes(zmy)) << "round " << round;
    ASSERT_EQ(fe_bytes(fe25519::fe_mul(zy[0], zy[1])),
              big_bytes(big_fmul(zpy, zmy)))
        << "round " << round;
  }
}

}  // namespace
}  // namespace shield5g::crypto
