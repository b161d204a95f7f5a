// Scalar-vs-accelerated kernel parity.
//
// The dispatch layer (crypto/cpu_dispatch.h) promises that backend
// choice is invisible: identical bytes out, identical op counts, on
// every input. These tests pin each backend in turn and diff the
// results — published vectors for anchoring, random inputs for breadth.
// On machines without AES-NI/SHA-NI the "accelerated" runs fall back to
// scalar and the comparisons degenerate to self-consistency, so the
// suite stays green in forced-fallback CI. The IFMA ladder's and comb's
// tests call their kernels directly and skip where they cannot run; the
// digest-parity CI stage fails if they skip on a host and compiler that
// support them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/fe25519.h"
#include "crypto/hmac_sha256.h"
#include "crypto/op_count.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "crypto/x25519_comb.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {
namespace {

// Pins a backend for the scope of one test body. Scopes must not nest:
// the destructor hands control back to SHIELD5G_CRYPTO_BACKEND, which
// the digest-parity CI stage pins both ways around this suite.
class ForcedBackend {
 public:
  explicit ForcedBackend(CryptoBackend b) { force_backend(b); }
  ~ForcedBackend() { clear_forced_backend(); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;
};

template <typename Fn>
auto with_backend(CryptoBackend b, Fn&& fn) {
  ForcedBackend guard(b);
  return fn();
}

// ---------------------------------------------------------------------
// AES-128
// ---------------------------------------------------------------------

TEST(KernelParity, Aes128Fips197BothBackends) {
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    const Aes128Ctx aes(h2b("000102030405060708090a0b0c0d0e0f"));
    EXPECT_EQ(hex_encode(aes.encrypt_block(
                  h2b("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(hex_encode(aes.decrypt_block(
                  h2b("69c4e0d86a7b0430d8cdb78070b4c55a"))),
              "00112233445566778899aabbccddeeff");
  }
}

TEST(KernelParity, Aes128BlockRandomInputs) {
  Rng rng(0xae5'0001);
  for (int i = 0; i < 64; ++i) {
    const Bytes key = rng.bytes(16);
    const Bytes pt = rng.bytes(16);
    const auto scalar_ct = with_backend(CryptoBackend::kScalar, [&] {
      return Aes128Ctx(key).encrypt_block(pt);
    });
    const auto accel_ct = with_backend(CryptoBackend::kAccelerated, [&] {
      return Aes128Ctx(key).encrypt_block(pt);
    });
    ASSERT_EQ(hex_encode(scalar_ct), hex_encode(accel_ct)) << "block " << i;
    const auto accel_pt = with_backend(CryptoBackend::kAccelerated, [&] {
      return Aes128Ctx(key).decrypt_block(scalar_ct);
    });
    ASSERT_EQ(Bytes(accel_pt.begin(), accel_pt.end()), pt);
  }
}

TEST(KernelParity, Aes128CtrRandomLengths) {
  Rng rng(0xae5'0002);
  // Lengths straddle the 4-block fast path, the single-block loop, and
  // partial final blocks.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{257}, std::size_t{1024}, std::size_t{1500}}) {
    const Bytes key = rng.bytes(16);
    const Bytes icb = rng.bytes(16);
    const Bytes data = rng.bytes(len);
    const auto scalar_out = with_backend(CryptoBackend::kScalar, [&] {
      return aes128_ctr(key, icb, data);
    });
    const auto accel_out = with_backend(CryptoBackend::kAccelerated, [&] {
      return aes128_ctr(key, icb, data);
    });
    ASSERT_EQ(hex_encode(scalar_out), hex_encode(accel_out)) << "len " << len;
  }
}

TEST(KernelParity, Aes128CtrCounterWraparound) {
  // Counter blocks near 2^64 and 2^128 exercise the carry into the high
  // qword — the exact spot a lane-swapped counter would corrupt.
  const Bytes key = h2b("2b7e151628aed2a6abf7158809cf4f3c");
  for (const std::string icb_hex :
       {"00000000000000000000000000000000", "0000000000000000fffffffffffffffe",
        "0000000000000000ffffffffffffffff", "fffffffffffffffffffffffffffffffe",
        "ffffffffffffffffffffffffffffffff"}) {
    const Bytes icb = h2b(icb_hex);
    const Bytes data(96, 0);  // six blocks of zeros: output = keystream
    const auto scalar_out = with_backend(CryptoBackend::kScalar, [&] {
      return aes128_ctr(key, icb, data);
    });
    const auto accel_out = with_backend(CryptoBackend::kAccelerated, [&] {
      return aes128_ctr(key, icb, data);
    });
    ASSERT_EQ(hex_encode(scalar_out), hex_encode(accel_out)) << icb_hex;
  }
}

TEST(KernelParity, Aes128OpCountsMatchAcrossBackends) {
  Rng rng(0xae5'0003);
  const Bytes key = rng.bytes(16);
  const Bytes icb = rng.bytes(16);
  const Bytes data = rng.bytes(100);  // 7 blocks incl. partial
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().aes_blocks;
    const Aes128Ctx aes(key);
    (void)aes.encrypt_block(ByteView(data.data(), 16));
    (void)aes128_ctr(aes, icb, data);
    return op_counts().aes_blocks - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
}

// ---------------------------------------------------------------------
// SHA-256 / HMAC
// ---------------------------------------------------------------------

TEST(KernelParity, Sha256Fips180BothBackends) {
  const struct {
    const char* msg;
    const char* digest;
  } kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    for (const auto& v : kVectors) {
      const std::string msg = v.msg;
      const auto digest =
          Sha256::digest(ByteView(reinterpret_cast<const std::uint8_t*>(
                                      msg.data()),
                                  msg.size()));
      EXPECT_EQ(hex_encode(digest), v.digest);
    }
  }
}

TEST(KernelParity, Sha256RandomLengths) {
  Rng rng(0x50a0001);
  for (std::size_t len = 0; len <= 300; len += 7) {
    const Bytes data = rng.bytes(len);
    const auto scalar_digest = with_backend(CryptoBackend::kScalar, [&] {
      return Sha256::digest(data);
    });
    const auto accel_digest = with_backend(CryptoBackend::kAccelerated, [&] {
      return Sha256::digest(data);
    });
    ASSERT_EQ(hex_encode(scalar_digest), hex_encode(accel_digest))
        << "len " << len;
  }
}

TEST(KernelParity, Sha256IncrementalUpdateSplits) {
  // The streaming path (partial buffer top-up + bulk blocks + tail)
  // must agree with one-shot hashing on both backends.
  Rng rng(0x50a0002);
  const Bytes data = rng.bytes(500);
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    const auto oneshot = Sha256::digest(data);
    for (const std::size_t split : {std::size_t{1}, std::size_t{63},
                                    std::size_t{64}, std::size_t{65},
                                    std::size_t{129}, std::size_t{499}}) {
      Sha256 h;
      h.update(ByteView(data.data(), split));
      h.update(ByteView(data.data() + split, data.size() - split));
      ASSERT_EQ(hex_encode(h.finalize()), hex_encode(oneshot))
          << "split " << split;
    }
  }
}

TEST(KernelParity, HmacSha256TwoPartMatchesConcat) {
  Rng rng(0x4a'c0de);
  for (int i = 0; i < 16; ++i) {
    const Bytes key = rng.bytes(i * 5);  // includes >64-byte keys
    const Bytes p1 = rng.bytes(13);
    const Bytes p2 = rng.bytes(200);
    Bytes joined = p1;
    joined.insert(joined.end(), p2.begin(), p2.end());
    for (const auto backend :
         {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
      ForcedBackend guard(backend);
      ASSERT_EQ(hex_encode(hmac_sha256(key, p1, p2)),
                hex_encode(hmac_sha256(key, joined)));
      ASSERT_EQ(hex_encode(hmac_sha256_trunc(key, p1, p2, 16)),
                hex_encode(hmac_sha256_trunc(key, joined, 16)));
    }
  }
}

TEST(KernelParity, Sha256OpCountsMatchAcrossBackends) {
  Rng rng(0x50a0003);
  const Bytes data = rng.bytes(333);
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().sha256_blocks;
    (void)Sha256::digest(data);
    return op_counts().sha256_blocks - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
}

// ---------------------------------------------------------------------
// X25519: Montgomery ladder vs Edwards comb
// ---------------------------------------------------------------------

TEST(KernelParity, X25519CombMatchesLadderRfc7748Vectors) {
  const Bytes scalar1 =
      h2b("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes u1 =
      h2b("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  ASSERT_TRUE(detail::x25519_comb_liftable(u1));
  EXPECT_EQ(hex_encode(detail::x25519_ladder(scalar1, u1)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  EXPECT_EQ(hex_encode(detail::x25519_comb_forced(scalar1, u1)),
            hex_encode(detail::x25519_ladder(scalar1, u1)));

  // The Diffie-Hellman vector's public keys are genuine curve points
  // (they come from the base point), so the comb serves them and must
  // reproduce the published shared secret.
  const Bytes a =
      h2b("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes b_pub =
      h2b("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  ASSERT_TRUE(detail::x25519_comb_liftable(b_pub));
  const auto comb = detail::x25519_comb_forced(a, b_pub);
  EXPECT_EQ(hex_encode(comb),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(hex_encode(comb), hex_encode(detail::x25519_ladder(a, b_pub)));
}

TEST(KernelParity, X25519CombMatchesLadderBasePoint) {
  Bytes base(32, 0);
  base[0] = 9;
  ASSERT_TRUE(detail::x25519_comb_liftable(base));
  Rng rng(0x25519'01);
  for (int i = 0; i < 8; ++i) {
    const Bytes scalar = rng.bytes(32);
    const auto ladder = detail::x25519_ladder(scalar, base);
    const auto comb = detail::x25519_comb_forced(scalar, base);
    ASSERT_EQ(hex_encode(comb), hex_encode(ladder)) << "scalar " << i;
  }
}

TEST(KernelParity, X25519CombMatchesLadderRandomPoints) {
  // Random u-coordinates land on the curve or its twist roughly evenly;
  // liftable ones must agree with the ladder, twist ones must be
  // refused (the dispatcher then keeps the ladder).
  Rng rng(0x25519'02);
  int liftable = 0, twist = 0;
  for (int i = 0; i < 24; ++i) {
    const Bytes u = rng.bytes(32);
    const Bytes scalar = rng.bytes(32);
    if (detail::x25519_comb_liftable(u)) {
      ++liftable;
      const auto ladder = detail::x25519_ladder(scalar, u);
      const auto comb = detail::x25519_comb_forced(scalar, u);
      ASSERT_EQ(hex_encode(comb), hex_encode(ladder)) << "point " << i;
    } else {
      ++twist;
      EXPECT_THROW(detail::x25519_comb_forced(scalar, u),
                   std::invalid_argument);
    }
  }
  EXPECT_GT(liftable, 0);
  EXPECT_GT(twist, 0);
}

TEST(KernelParity, X25519SmallOrderInputsAgree) {
  // u = 0 and u = 1 generate low-order subgroups; both paths must map
  // them to the same (all-zero or otherwise) outputs.
  Rng rng(0x25519'03);
  for (const std::uint8_t first : {0, 1}) {
    Bytes u(32, 0);
    u[0] = first;
    const Bytes scalar = rng.bytes(32);
    const auto ladder = detail::x25519_ladder(scalar, u);
    if (detail::x25519_comb_liftable(u)) {
      const auto comb = detail::x25519_comb_forced(scalar, u);
      EXPECT_EQ(hex_encode(comb), hex_encode(ladder))
          << "u[0]=" << int(first);
    }
  }
}

TEST(KernelParity, X25519PublicPathIsBitIdenticalAndTakesNoSlot) {
  detail::x25519_cache_reset();
  Rng rng(0x25519'04);
  const Bytes scalar = rng.bytes(32);
  // Scalar backend: pure ladder, never touches a comb table.
  const auto reference = with_backend(CryptoBackend::kScalar, [&] {
    return x25519_public(scalar);
  });
  // Accelerated backend: the base point's own table, built once, serves
  // every call and takes none of the pinned keys' slots.
  ForcedBackend guard(CryptoBackend::kAccelerated);
  for (int i = 0; i < 8; ++i) {
    const auto out = x25519_public(scalar);
    ASSERT_EQ(hex_encode(out), hex_encode(reference)) << "call " << i;
  }
  EXPECT_EQ(detail::x25519_cache_size(), 0u);
}

TEST(KernelParity, X25519WirePointTakesTheLadderAndNoSlot) {
  // A point from the wire never enters the cache, however often a peer
  // sends it.
  detail::x25519_cache_reset();
  ForcedBackend guard(CryptoBackend::kAccelerated);
  Rng rng(0x25519'06);
  const Bytes scalar = rng.bytes(32);
  const auto peer = x25519_keypair(rng.bytes(32)).public_key;
  const auto reference = detail::x25519_ladder(scalar, peer);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(hex_encode(x25519(scalar, peer)), hex_encode(reference))
        << "call " << i;
  }
  EXPECT_EQ(detail::x25519_cache_size(), 0u);
}

TEST(KernelParity, X25519PinnedKeyIsCachedOnFirstUse) {
  detail::x25519_cache_reset();
  ForcedBackend guard(CryptoBackend::kAccelerated);
  Rng rng(0x25519'07);
  const Bytes scalar = rng.bytes(32);
  const auto pinned = x25519_keypair(rng.bytes(32)).public_key;
  const auto reference = detail::x25519_ladder(scalar, pinned);
  EXPECT_EQ(hex_encode(x25519_pinned(scalar, pinned)), hex_encode(reference));
  EXPECT_EQ(detail::x25519_cache_size(), 1u);
  // The comb serves the repeats from the one published table.
  for (int i = 0; i < 3; ++i) {
    const Bytes other_scalar = rng.bytes(32);
    ASSERT_EQ(hex_encode(x25519_pinned(other_scalar, pinned)),
              hex_encode(detail::x25519_ladder(other_scalar, pinned)));
  }
  EXPECT_EQ(detail::x25519_cache_size(), 1u);
  // The fused key pair's peer half is a pinned use too.
  X25519Key shared;
  const Bytes random = rng.bytes(32);
  const auto other = x25519_keypair(rng.bytes(32)).public_key;
  (void)x25519_keypair_shared(random, other, shared);
  const auto ladder_shared = detail::x25519_ladder(random, other);
  EXPECT_EQ(hex_encode(shared), hex_encode(ladder_shared));
  EXPECT_EQ(detail::x25519_cache_size(), 2u);
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519PinnedKeysPastTheCacheTakeTheLadder) {
  // 64 slots: the 65th and later pinned keys find the cache full and
  // fall back to the ladder with the same output.
  detail::x25519_cache_reset();
  ForcedBackend guard(CryptoBackend::kAccelerated);
  Rng rng(0x25519'08);
  const Bytes scalar = rng.bytes(32);
  for (int i = 0; i < 70; ++i) {
    const auto pinned = x25519_keypair(rng.bytes(32)).public_key;
    ASSERT_EQ(hex_encode(x25519_pinned(scalar, pinned)),
              hex_encode(detail::x25519_ladder(scalar, pinned)))
        << "key " << i;
    ASSERT_EQ(detail::x25519_cache_size(),
              static_cast<std::size_t>(std::min(i + 1, 64)))
        << "key " << i;
  }
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519OpCountsMatchAcrossBackends) {
  detail::x25519_cache_reset();
  Rng rng(0x25519'05);
  const Bytes scalar = rng.bytes(32);
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().x25519_ops;
    for (int i = 0; i < 6; ++i) (void)x25519_public(scalar);
    return op_counts().x25519_ops - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
  detail::x25519_cache_reset();
}

// ---------------------------------------------------------------------
// X25519: AVX-512 IFMA ladder and comb vs the 51-bit ladder and the
// portable comb
// ---------------------------------------------------------------------

bool ifma_ladder_runnable() {
  return cpu_has_avx512ifma() && detail::x25519_ifma_compiled();
}

// Linux lists a CPU flag only when the CPU has the feature and the
// kernel enabled its register state, so this is an oracle for CPUID +
// XCR0 detection that does not share its code.
bool cpuinfo_lists(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line);
    std::string word;
    while (words >> word) {
      if (word == flag) return true;
    }
    return false;
  }
  return false;
}

Bytes clamped(Bytes k) {
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
  return k;
}

std::array<std::uint8_t, 32> fe_bytes(const fe25519::Fe& a) {
  std::array<std::uint8_t, 32> out{};
  fe25519::fe_store(out.data(), a);
  return out;
}

TEST(KernelParity, X25519IfmaLadderMatchesScalarLadder) {
  if (!ifma_ladder_runnable()) GTEST_SKIP() << "IFMA ladder unavailable";
  Rng rng(0x25519'06);
  std::vector<Bytes> points;
  // Edges: u = 0, 1, p - 1, p, p + 1, 2^256 - 1 (top bit masked on
  // load, so 2^255 - 1 = p + 18) and the two order-8 points.
  for (const char* hex :
       {"0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"}) {
    points.push_back(h2b(hex));
  }
  // Random u-coordinates: about half land on the twist.
  int twist = 0;
  while (points.size() < 2000 + 8) {
    points.push_back(rng.bytes(32));
    if (twist < 16 && !detail::x25519_comb_liftable(points.back())) ++twist;
  }
  EXPECT_EQ(twist, 16);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Bytes k = clamped(rng.bytes(32));
    const Bytes& u = points[i];
    fe25519::Fe n51, d51, n43, d43;
    detail::x25519_ladder_fraction(k.data(), u.data(), n51, d51);
    detail::x25519_ifma_ladder_fraction(k.data(), fe25519::fe_load(u.data()),
                                        n43, d43);
    ASSERT_EQ(fe_bytes(n43), fe_bytes(n51)) << "num, point " << i;
    ASSERT_EQ(fe_bytes(d43), fe_bytes(d51)) << "den, point " << i;
    const auto out = fe_bytes(fe25519::fe_mul(n43, fe25519::fe_invert(d43)));
    const auto reference = detail::x25519_ladder(k, u);
    ASSERT_EQ(hex_encode(out), hex_encode(reference)) << "point " << i;
  }
}

// Clamped scalars at the signed recoding's edges: 0x00 gives 2^254,
// the smallest (digit 0 in every window but the top); 0xff gives
// 2^255 - 8, the largest (a carry out of every window, digit 0 in most
// and +8, which only the top window can hold); every nibble 8 and the
// alternating bytes 0x78/0x87 and 0x87/0x78 (digits -8 and -7, a carry
// out of every window); every nibble 7 (digit 7, no carry).
std::vector<Bytes> comb_edge_scalars() {
  std::vector<Bytes> out;
  for (const auto& [even, odd] :
       std::vector<std::pair<std::uint8_t, std::uint8_t>>{
           {0x00, 0x00}, {0xff, 0xff}, {0x88, 0x88}, {0x78, 0x87},
           {0x87, 0x78}, {0x77, 0x77}}) {
    Bytes k(32);
    for (std::size_t i = 0; i < k.size(); ++i) k[i] = i % 2 ? odd : even;
    out.push_back(clamped(k));
  }
  return out;
}

TEST(KernelParity, X25519IfmaCombMatchesPortableComb) {
  if (!ifma_ladder_runnable()) GTEST_SKIP() << "IFMA comb unavailable";
  // Tables for the base point, both RFC 7748 Diffie-Hellman public
  // keys, and 16 random points that lift.
  std::vector<Bytes> points = {
      h2b("0900000000000000000000000000000000000000000000000000000000000000"),
      h2b("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"),
      h2b("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")};
  std::vector<detail::CombTablePtr> tables;
  for (const Bytes& u : points) {
    tables.push_back(detail::comb_build(u.data()));
    ASSERT_NE(tables.back(), nullptr);
  }
  Rng rng(0x25519'07);
  while (tables.size() < 3 + 16) {
    Bytes u = rng.bytes(32);
    detail::CombTablePtr table = detail::comb_build(u.data());
    if (!table) continue;  // twist point
    points.push_back(std::move(u));
    tables.push_back(std::move(table));
  }

  // Canonical num/den against the portable comb, output bytes against
  // the 51-bit ladder.
  auto check = [&](std::size_t t, const Bytes& k) {
    fe25519::Fe np, dp, ni, di;
    detail::comb_portable_fraction(*tables[t], k.data(), np, dp);
    detail::comb_ifma_fraction(*tables[t], k.data(), ni, di);
    ASSERT_EQ(fe_bytes(ni), fe_bytes(np)) << "num, point " << t;
    ASSERT_EQ(fe_bytes(di), fe_bytes(dp)) << "den, point " << t;
    const auto out = fe_bytes(fe25519::fe_mul(ni, fe25519::fe_invert(di)));
    const auto reference = detail::x25519_ladder(k, points[t]);
    ASSERT_EQ(hex_encode(out), hex_encode(reference)) << "point " << t;
  };
  const std::vector<Bytes> edges = comb_edge_scalars();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (std::size_t t = 0; t < tables.size(); ++t) {
      ASSERT_NO_FATAL_FAILURE(check(t, edges[e])) << "edge scalar " << e;
    }
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_NO_FATAL_FAILURE(check(i % tables.size(), clamped(rng.bytes(32))))
        << "scalar " << i;
  }
}

TEST(KernelParity, X25519AcceleratedPathTakesIfmaLadder) {
  // Without this, a CPUID/XCR0 regression would quietly route the
  // accelerated backend to the 51-bit ladder, and every parity check
  // above would compare that ladder with itself.
  if (cpuinfo_lists("avx512ifma") && cpuinfo_lists("avx512vl") &&
      cpuinfo_lists("avx512dq")) {
    EXPECT_TRUE(cpu_has_avx512ifma());
  }
  EXPECT_FALSE(with_backend(CryptoBackend::kScalar,
                           [] { return detail::x25519_ladder_is_ifma(); }));
  const bool accel = with_backend(CryptoBackend::kAccelerated, [] {
    return detail::x25519_ladder_is_ifma();
  });
  if (!ifma_ladder_runnable()) {
    EXPECT_FALSE(accel);
    GTEST_SKIP() << "IFMA ladder unavailable";
  }
  EXPECT_TRUE(accel);
}

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------

TEST(KernelParity, ForcedBackendRoundTrip) {
  force_backend(CryptoBackend::kScalar);
  EXPECT_EQ(active_backend(), CryptoBackend::kScalar);
  EXPECT_STREQ(backend_name(CryptoBackend::kScalar), "scalar");
  force_backend(CryptoBackend::kAccelerated);
  EXPECT_EQ(active_backend(), CryptoBackend::kAccelerated);
  EXPECT_STREQ(backend_name(CryptoBackend::kAccelerated), "accel");
  clear_forced_backend();
}

}  // namespace
}  // namespace shield5g::crypto
