// Scalar-vs-accelerated kernel parity.
//
// The dispatch layer (crypto/cpu_dispatch.h) promises that backend
// choice is invisible: identical bytes out, identical op counts, on
// every input. These tests pin each backend in turn and diff the
// results — published vectors for anchoring, random inputs for breadth.
// On machines without AES-NI/SHA-NI the "accelerated" runs fall back to
// scalar and the comparisons degenerate to self-consistency, so the
// suite stays green in forced-fallback CI.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/hmac_sha256.h"
#include "crypto/op_count.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
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

TEST(KernelParity, X25519PublicPathCachesAndStaysBitIdentical) {
  detail::x25519_cache_reset();
  Rng rng(0x25519'04);
  const Bytes scalar = rng.bytes(32);
  // Scalar backend: pure ladder, never touches the cache.
  const auto reference = with_backend(CryptoBackend::kScalar, [&] {
    return x25519_public(scalar);
  });
  // Accelerated backend: the base point crosses the build threshold and
  // switches to the comb; outputs must not change at the switch.
  ForcedBackend guard(CryptoBackend::kAccelerated);
  for (int i = 0; i < 10; ++i) {
    const auto out = x25519_public(scalar);
    ASSERT_EQ(hex_encode(out), hex_encode(reference)) << "call " << i;
  }
  EXPECT_EQ(detail::x25519_cache_size(), 1u);
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
