// Property tests for the fe25519 carry-range discipline, against an
// independent base-2^64 bignum oracle.
//
// The field header documents a contract the ladder and the comb lean
// on: fe_mul / fe_sq accept limbs up to 2^54 and return carried values
// (< 2^51 + eps); fe_add of two carried values stays under 2^52.1 and
// fe_sub of such sums under 2^53.2, both safe as multiplier inputs.
// These tests drive randomized limb patterns through every op and check
// both halves of the contract — the numeric value (mod p, via the
// oracle) and the output ranges.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "crypto/fe25519.h"

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

}  // namespace
}  // namespace shield5g::crypto
