// Crypto substrate tests: published vectors (FIPS-197, FIPS-180,
// RFC 4231, 3GPP TS 35.207/35.208, RFC 7748) plus property tests on the
// ECIES/SUCI schemes that lack official vectors.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cost.h"
#include "crypto/ecies.h"
#include "crypto/hmac_sha256.h"
#include "crypto/kdf.h"
#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"
#include "crypto/op_count.h"
#include "crypto/sha256.h"
#include "crypto/suci.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {
namespace {

// ---------------------------------------------------------------------
// AES-128
// ---------------------------------------------------------------------

TEST(Aes128, Fips197Vector) {
  const Aes128 aes(h2b("000102030405060708090a0b0c0d0e0f"));
  const auto ct = aes.encrypt_block(h2b("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(hex_encode(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Fips197Decrypt) {
  const Aes128 aes(h2b("000102030405060708090a0b0c0d0e0f"));
  const auto pt = aes.decrypt_block(h2b("69c4e0d86a7b0430d8cdb78070b4c55a"));
  EXPECT_EQ(hex_encode(pt), "00112233445566778899aabbccddeeff");
}

TEST(Aes128, RejectsBadKeySize) {
  EXPECT_THROW(Aes128(h2b("0011")), std::invalid_argument);
}

TEST(Aes128, RejectsBadBlockSize) {
  const Aes128 aes(h2b("000102030405060708090a0b0c0d0e0f"));
  EXPECT_THROW(aes.encrypt_block(h2b("0011")), std::invalid_argument);
  EXPECT_THROW(aes.decrypt_block(h2b("0011")), std::invalid_argument);
}

class AesRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AesRoundTrip, DecryptInvertsEncrypt) {
  Rng rng(GetParam());
  const Bytes key = rng.bytes(16);
  const Bytes pt = rng.bytes(16);
  const Aes128 aes(key);
  const auto ct = aes.encrypt_block(pt);
  const auto back = aes.decrypt_block(ct);
  EXPECT_EQ(Bytes(back.begin(), back.end()), pt);
  EXPECT_NE(Bytes(ct.begin(), ct.end()), pt);
}

INSTANTIATE_TEST_SUITE_P(RandomKeys, AesRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(Aes128Ctr, EncryptDecryptRoundTrip) {
  Rng rng(7);
  const Bytes key = rng.bytes(16);
  const Bytes icb = rng.bytes(16);
  const Bytes data = rng.bytes(133);  // non-multiple of block size
  const Bytes ct = aes128_ctr(key, icb, data);
  EXPECT_EQ(aes128_ctr(key, icb, ct), data);
  EXPECT_NE(ct, data);
}

TEST(Aes128Ctr, CounterIncrementsAcrossBlocks) {
  const Bytes key = h2b("000102030405060708090a0b0c0d0e0f");
  Bytes icb(16, 0);
  icb[15] = 0xff;  // forces a carry into byte 14 after one block
  const Bytes zeros(32, 0);
  const Bytes ks = aes128_ctr(key, icb, zeros);
  // Keystream blocks must equal E(icb) and E(icb+1).
  const Aes128 aes(key);
  const auto b0 = aes.encrypt_block(icb);
  Bytes icb1 = icb;
  icb1[15] = 0x00;
  icb1[14] = 0x01;
  const auto b1 = aes.encrypt_block(icb1);
  EXPECT_EQ(Bytes(ks.begin(), ks.begin() + 16), Bytes(b0.begin(), b0.end()));
  EXPECT_EQ(Bytes(ks.begin() + 16, ks.end()), Bytes(b1.begin(), b1.end()));
}

TEST(Aes128Ctr, EmptyInput) {
  const Bytes key(16, 1), icb(16, 2);
  EXPECT_TRUE(aes128_ctr(key, icb, Bytes{}).empty());
}

// ---------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(hex_encode(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_encode(Sha256::digest(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180TwoBlock) {
  EXPECT_EQ(
      hex_encode(Sha256::digest(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 hash;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hash.update(chunk);
  EXPECT_EQ(hex_encode(hash.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(42);
  const Bytes data = rng.bytes(1000);
  for (std::size_t split : {1u, 55u, 63u, 64u, 65u, 500u, 999u}) {
    Sha256 hash;
    hash.update(ByteView(data).subspan(0, split));
    hash.update(ByteView(data).subspan(split));
    const auto streamed = hash.finalize();
    EXPECT_EQ(Bytes(streamed.begin(), streamed.end()),
              Sha256::digest(data))
        << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must all work.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes data(len, 0x61);
    const Bytes d = Sha256::digest(data);
    EXPECT_EQ(d.size(), 32u) << len;
    // Consistency with a streamed computation byte by byte.
    Sha256 hash;
    for (std::uint8_t byte : data) hash.update(Bytes{byte});
    const auto streamed = hash.finalize();
    EXPECT_EQ(Bytes(streamed.begin(), streamed.end()), d) << len;
  }
}

TEST(Sha256, UpdateAfterFinalizeThrows) {
  Sha256 hash;
  hash.update(to_bytes("abc"));
  hash.finalize();
  EXPECT_THROW(hash.update(to_bytes("x")), std::logic_error);
  EXPECT_THROW(hash.finalize(), std::logic_error);
  hash.reset();
  hash.update(to_bytes("abc"));
  EXPECT_EQ(hex_encode(hash.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------
// HMAC-SHA-256 (RFC 4231)
// ---------------------------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      hex_encode(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, TruncationPrefix) {
  const Bytes key(20, 0x0b);
  const Bytes full = hmac_sha256(key, to_bytes("Hi There"));
  const Bytes trunc = hmac_sha256_trunc(key, to_bytes("Hi There"), 8);
  EXPECT_EQ(trunc, Bytes(full.begin(), full.begin() + 8));
  EXPECT_THROW(hmac_sha256_trunc(key, to_bytes("x"), 33),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// MILENAGE (3GPP TS 35.207/35.208 Test Set 1)
// ---------------------------------------------------------------------

struct MilenageVectors {
  Bytes k = h2b("465b5ce8b199b49faa5f0a2ee238a6bc");
  Bytes rand = h2b("23553cbe9637a89d218ae64dae47bf35");
  Bytes sqn = h2b("ff9bb4d0b607");
  Bytes amf = h2b("b9b9");
  Bytes op = h2b("cdc202d5123e20f62b6d676ac72cb318");
  Bytes opc = h2b("cd63cb71954a9f4e48a5994e37a02baf");
};

TEST(Milenage, OpcDerivation) {
  const MilenageVectors v;
  // lint-audited(secret-sink: published TS 35.208 OPc vector compared in hex for readable failures)
  EXPECT_EQ(hex_encode(Milenage::derive_opc(v.k, v.op).reveal_for_test()),
            // lint-audited(secret-sink: published TS 35.208 OPc vector compared in hex for readable failures)
            hex_encode(v.opc));
}

TEST(Milenage, TestSet1AllFunctions) {
  const MilenageVectors v;
  const Milenage milenage(v.k, v.opc);
  const auto out = milenage.compute(v.rand, v.sqn, v.amf);
  EXPECT_EQ(hex_encode(out.mac_a), "4a9ffac354dfafb3");   // f1
  EXPECT_EQ(hex_encode(out.mac_s), "01cfaf9ec4e871e9");   // f1*
  EXPECT_EQ(hex_encode(out.res), "a54211d5e3ba50bf");     // f2
  // lint-audited(secret-sink: published TS 35.208 test vector, revealed via reveal_for_test)
  EXPECT_EQ(hex_encode(out.ck.reveal_for_test()),
            "b40ba9a3c58b2a05bbf0d987b21bf8cb");           // f3
  // lint-audited(secret-sink: published TS 35.208 test vector, revealed via reveal_for_test)
  EXPECT_EQ(hex_encode(out.ik.reveal_for_test()),
            "f769bcd751044604127672711c6d3441");           // f4
  EXPECT_EQ(hex_encode(out.ak), "aa689c648370");           // f5
  EXPECT_EQ(hex_encode(out.ak_s), "451e8beca43b");         // f5*
}

TEST(Milenage, AutnRoundTrip) {
  const MilenageVectors v;
  const Milenage milenage(v.k, v.opc);
  const auto out = milenage.compute(v.rand, v.sqn, v.amf);
  const Bytes autn = build_autn(v.sqn, out.ak, v.amf, out.mac_a);
  ASSERT_EQ(autn.size(), 16u);
  const AutnFields fields = parse_autn(autn);
  EXPECT_EQ(xor_bytes(fields.sqn_xor_ak, out.ak), v.sqn);
  EXPECT_EQ(fields.amf, v.amf);
  EXPECT_EQ(fields.mac_a, out.mac_a);
}

TEST(Milenage, DifferentRandDifferentOutput) {
  const MilenageVectors v;
  const Milenage milenage(v.k, v.opc);
  const auto a = milenage.compute_f2345(v.rand);
  Bytes rand2 = v.rand;
  rand2[0] ^= 0x01;
  const auto b = milenage.compute_f2345(rand2);
  EXPECT_NE(a.res, b.res);
  EXPECT_NE(a.ck, b.ck);
  EXPECT_NE(a.ak, b.ak);
}

class MilenageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilenageProperty, OutputSizesAndDeterminism) {
  Rng rng(GetParam());
  const Bytes k = rng.bytes(16);
  const Bytes opc = rng.bytes(16);
  const Bytes rand = rng.bytes(16);
  const Bytes sqn = rng.bytes(6);
  const Bytes amf = rng.bytes(2);
  const Milenage milenage(k, opc);
  const auto a = milenage.compute(rand, sqn, amf);
  const auto b = milenage.compute(rand, sqn, amf);
  EXPECT_EQ(a.mac_a, b.mac_a);
  EXPECT_EQ(a.res, b.res);
  EXPECT_EQ(a.mac_a.size(), 8u);
  EXPECT_EQ(a.mac_s.size(), 8u);
  EXPECT_EQ(a.res.size(), 8u);
  EXPECT_EQ(a.ck.size(), 16u);
  EXPECT_EQ(a.ik.size(), 16u);
  EXPECT_EQ(a.ak.size(), 6u);
  EXPECT_EQ(a.ak_s.size(), 6u);
  EXPECT_NE(a.ak, a.ak_s);  // f5 and f5* use different rotations
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, MilenageProperty,
                         ::testing::Range<std::uint64_t>(100, 112));

// ---------------------------------------------------------------------
// TS 33.220 KDF and the 5G key hierarchy
// ---------------------------------------------------------------------

TEST(Kdf, SStringLayout) {
  const Bytes s = kdf_s_string(0x6c, {{to_bytes("ab")}, {Bytes{0x01}}});
  // FC || "ab" || 0x0002 || 0x01 || 0x0001
  EXPECT_EQ(hex_encode(s), "6c61620002010001");
}

TEST(Kdf, MatchesDirectHmacConstruction) {
  const Bytes key(32, 0x42);
  const Bytes derived = kdf(key, 0x6c, {{to_bytes("test")}});
  const Bytes expected =
      hmac_sha256(key, concat({Bytes{0x6c}, to_bytes("test"),
                               Bytes{0x00, 0x04}}));
  EXPECT_EQ(derived, expected);
}

TEST(Kdf, Trunc128TakesLow128Bits) {
  const Bytes key(32, 0x42);
  const Bytes full = kdf(key, 0x6b, {{to_bytes("x")}});
  const Bytes trunc = kdf_trunc128(key, 0x6b, {{to_bytes("x")}});
  EXPECT_EQ(trunc, Bytes(full.begin() + 16, full.end()));
}

TEST(KeyHierarchy, ServingNetworkNameFormat) {
  EXPECT_EQ(serving_network_name("001", "01"),
            "5G:mnc001.mcc001.3gppnetwork.org");
  EXPECT_EQ(serving_network_name("310", "410"),
            "5G:mnc410.mcc310.3gppnetwork.org");
}

TEST(KeyHierarchy, SizesAndDistinctness) {
  Rng rng(5);
  const Bytes ck = rng.bytes(16), ik = rng.bytes(16);
  const Bytes rand = rng.bytes(16), res = rng.bytes(8);
  const Bytes sqn_xor_ak = rng.bytes(6);
  const std::string snn = serving_network_name("001", "01");

  const SecretBytes kausf = derive_kausf(ck, ik, snn, sqn_xor_ak);
  const Bytes res_star = derive_res_star(ck, ik, snn, rand, res);
  const Bytes hxres = derive_hxres_star(rand, res_star);
  const SecretBytes kseaf = derive_kseaf(kausf, snn);
  const SecretBytes kamf = derive_kamf(kseaf, "001010000000001", Bytes{0, 0});
  const SecretBytes knas_int = derive_algo_key(kamf, AlgoType::kNasInt, 2);
  const SecretBytes knas_enc = derive_algo_key(kamf, AlgoType::kNasEnc, 2);
  const SecretBytes kgnb = derive_kgnb(kamf, 0);

  EXPECT_EQ(kausf.size(), 32u);
  EXPECT_EQ(res_star.size(), 16u);
  EXPECT_EQ(hxres.size(), 16u);
  EXPECT_EQ(kseaf.size(), 32u);
  EXPECT_EQ(kamf.size(), 32u);
  EXPECT_EQ(knas_int.size(), 16u);
  EXPECT_EQ(knas_enc.size(), 16u);
  EXPECT_EQ(kgnb.size(), 32u);
  EXPECT_NE(knas_int, knas_enc);
  EXPECT_NE(kausf, kseaf);
}

TEST(KeyHierarchy, HxresStarTruncation) {
  Rng rng(6);
  const Bytes rand = rng.bytes(16), xres = rng.bytes(16);
  const Bytes full = derive_hxres_star(rand, xres, 16);
  const Bytes paper8 = derive_hxres_star(rand, xres, 8);
  EXPECT_EQ(paper8, Bytes(full.begin(), full.begin() + 8));
  const Bytes digest = Sha256::digest(concat({rand, xres}));
  EXPECT_EQ(full, Bytes(digest.begin(), digest.begin() + 16));
}

TEST(KeyHierarchy, SnnBindsTheHierarchy) {
  Rng rng(7);
  const Bytes kausf = rng.bytes(32);
  EXPECT_NE(derive_kseaf(kausf, serving_network_name("001", "01")),
            derive_kseaf(kausf, serving_network_name("310", "410")));
}

// ---------------------------------------------------------------------
// X25519 (RFC 7748)
// ---------------------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  const auto out = x25519(
      h2b("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
      h2b("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"));
  EXPECT_EQ(hex_encode(out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const Bytes a =
      h2b("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes b =
      h2b("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto a_pub = x25519_public(a);
  const auto b_pub = x25519_public(b);
  EXPECT_EQ(hex_encode(a_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(b_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto shared_a = x25519(a, b_pub);
  const auto shared_b = x25519(b, a_pub);
  EXPECT_EQ(hex_encode(shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(Bytes(shared_a.begin(), shared_a.end()),
            Bytes(shared_b.begin(), shared_b.end()));
}

class X25519Agreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(X25519Agreement, BothSidesAgree) {
  Rng rng(GetParam());
  const auto alice = x25519_keypair(rng.bytes(32));
  const auto bob = x25519_keypair(rng.bytes(32));
  const auto s1 = x25519(alice.private_key, bob.public_key);
  const auto s2 = x25519(bob.private_key, alice.public_key);
  EXPECT_EQ(Bytes(s1.begin(), s1.end()), Bytes(s2.begin(), s2.end()));
  // Shared secret must not be all zero (low-order point would be).
  bool nonzero = false;
  for (auto byte : s1) nonzero |= byte != 0;
  EXPECT_TRUE(nonzero);
}

INSTANTIATE_TEST_SUITE_P(RandomKeys, X25519Agreement,
                         ::testing::Range<std::uint64_t>(200, 212));

TEST(X25519, FusedKeypairSharedMatchesSeparateCalls) {
  Rng rng(77);
  const auto peer = x25519_keypair(rng.bytes(32));
  // Repeat one peer point past the comb build threshold so the fused
  // path is exercised on both backends (ladder first, comb once hot).
  for (int i = 0; i < 8; ++i) {
    const Bytes random = rng.bytes(32);
    const auto separate_kp = x25519_keypair(random);
    const auto separate_shared =
        x25519(separate_kp.private_key, peer.public_key);
    X25519Key fused_shared;
    const auto fused_kp =
        x25519_keypair_shared(random, peer.public_key, fused_shared);
    EXPECT_EQ(hex_encode(fused_kp.public_key),
              hex_encode(separate_kp.public_key));
    EXPECT_EQ(hex_encode(fused_shared), hex_encode(separate_shared));
    const auto fused_priv = fused_kp.private_key.unsafe_bytes();
    EXPECT_EQ(Bytes(fused_priv.begin(), fused_priv.end()), random);
  }
}

TEST(X25519, FusedKeypairSharedDegeneratePeer) {
  // Low-order peer u = 0: the shared secret canonicalizes to zero
  // (fe_invert(0) = 0 semantics) while the public key stays correct.
  Rng rng(78);
  const Bytes zero_u(32, 0x00);
  const Bytes random = rng.bytes(32);
  const auto separate_kp = x25519_keypair(random);
  const auto separate_shared = x25519(separate_kp.private_key, zero_u);
  X25519Key fused_shared;
  const auto fused_kp = x25519_keypair_shared(random, zero_u, fused_shared);
  EXPECT_EQ(hex_encode(fused_kp.public_key),
            hex_encode(separate_kp.public_key));
  EXPECT_EQ(hex_encode(fused_shared), hex_encode(separate_shared));
  for (auto byte : fused_shared) EXPECT_EQ(byte, 0);
}

// ---------------------------------------------------------------------
// ECIES Profile A + SUCI
// ---------------------------------------------------------------------

TEST(Ecies, RoundTrip) {
  Rng rng(11);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Bytes plaintext = to_bytes("0123456789");
  const auto ct = ecies_encrypt(hn.public_key, plaintext, rng.bytes(32));
  const auto back = ecies_decrypt(hn.private_key, ct);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plaintext);
}

TEST(Ecies, TamperedCiphertextRejected) {
  Rng rng(12);
  const auto hn = x25519_keypair(rng.bytes(32));
  auto ct = ecies_encrypt(hn.public_key, to_bytes("secret"), rng.bytes(32));
  ct.ciphertext[0] ^= 0x01;
  EXPECT_FALSE(ecies_decrypt(hn.private_key, ct).has_value());
}

TEST(Ecies, TamperedTagRejected) {
  Rng rng(13);
  const auto hn = x25519_keypair(rng.bytes(32));
  auto ct = ecies_encrypt(hn.public_key, to_bytes("secret"), rng.bytes(32));
  ct.mac_tag[3] ^= 0x80;
  EXPECT_FALSE(ecies_decrypt(hn.private_key, ct).has_value());
}

TEST(Ecies, WrongPrivateKeyRejected) {
  Rng rng(14);
  const auto hn = x25519_keypair(rng.bytes(32));
  const auto other = x25519_keypair(rng.bytes(32));
  const auto ct =
      ecies_encrypt(hn.public_key, to_bytes("secret"), rng.bytes(32));
  EXPECT_FALSE(ecies_decrypt(other.private_key, ct).has_value());
}

TEST(Ecies, SerializeDeserialize) {
  Rng rng(15);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Bytes pt = rng.bytes(9);
  const auto ct = ecies_encrypt(hn.public_key, pt, rng.bytes(32));
  const Bytes wire = ct.serialize();
  const auto parsed = EciesCiphertext::deserialize(wire, pt.size());
  EXPECT_EQ(parsed.ephemeral_public, ct.ephemeral_public);
  EXPECT_EQ(parsed.ciphertext, ct.ciphertext);
  EXPECT_EQ(parsed.mac_tag, ct.mac_tag);
}

TEST(Ecies, X963KdfDeterministicAndLengthExact) {
  const Bytes secret(32, 0x11), info(32, 0x22);
  const Bytes k1 = x963_kdf(secret, info, 64);
  const Bytes k2 = x963_kdf(secret, info, 64);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.size(), 64u);
  // Prefix property: shorter output is a prefix of longer output.
  const Bytes k3 = x963_kdf(secret, info, 16);
  EXPECT_EQ(k3, Bytes(k1.begin(), k1.begin() + 16));
}

TEST(Suci, PackUnpackDigits) {
  // TBCD layout: the first digit of each pair sits in the low nibble.
  EXPECT_EQ(hex_encode(pack_digits("001010000000001")), "00010100000000f1");
  EXPECT_EQ(unpack_digits(pack_digits("0123456789"), 10), "0123456789");
  EXPECT_EQ(unpack_digits(pack_digits("123"), 3), "123");
  EXPECT_THROW(pack_digits("12a"), std::invalid_argument);
}

TEST(Suci, ProfileARoundTrip) {
  Rng rng(16);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Suci suci = conceal_supi("001", "01", "0000000001",
                                 SuciScheme::kProfileA, hn.public_key,
                                 rng.bytes(32));
  const auto supi = deconceal_suci(suci, hn.private_key);
  ASSERT_TRUE(supi.has_value());
  EXPECT_EQ(*supi, "001010000000001");
}

TEST(Suci, NullSchemeRoundTrip) {
  const Suci suci = conceal_supi("001", "01", "0000000001",
                                 SuciScheme::kNull, {}, ByteView{});
  const auto supi = deconceal_suci(suci, {});
  ASSERT_TRUE(supi.has_value());
  EXPECT_EQ(*supi, "001010000000001");
}

TEST(Suci, StringFormatRoundTrip) {
  Rng rng(17);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Suci suci = conceal_supi("001", "01", "0000000042",
                                 SuciScheme::kProfileA, hn.public_key,
                                 rng.bytes(32));
  const std::string text = suci.to_string();
  EXPECT_EQ(text.rfind("suci-0-001-01-0000-1-1-", 0), 0u) << text;
  const auto parsed = Suci::from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mcc, "001");
  EXPECT_EQ(parsed->mnc, "01");
  EXPECT_EQ(parsed->scheme_output, suci.scheme_output);
  const auto supi = deconceal_suci(*parsed, hn.private_key);
  ASSERT_TRUE(supi.has_value());
  EXPECT_EQ(*supi, "001010000000042");
}

TEST(Suci, ConcealmentIsProbabilistic) {
  Rng rng(18);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Suci a = conceal_supi("001", "01", "0000000001",
                              SuciScheme::kProfileA, hn.public_key,
                              rng.bytes(32));
  const Suci b = conceal_supi("001", "01", "0000000001",
                              SuciScheme::kProfileA, hn.public_key,
                              rng.bytes(32));
  // Fresh ephemeral keys -> different scheme output for the same SUPI
  // (the linkability protection SUCI exists for).
  EXPECT_NE(a.scheme_output, b.scheme_output);
}

TEST(Suci, MalformedStringRejected) {
  EXPECT_FALSE(Suci::from_string("imsi-001010000000001").has_value());
  EXPECT_FALSE(Suci::from_string("suci-0-001-01").has_value());
  EXPECT_FALSE(
      Suci::from_string("suci-0-001-01-0000-9-1-aabb").has_value());
  EXPECT_FALSE(
      Suci::from_string("suci-0-001-01-0000-1-1-zzzz").has_value());
}

TEST(Suci, TamperedSchemeOutputRejected) {
  Rng rng(19);
  const auto hn = x25519_keypair(rng.bytes(32));
  Suci suci = conceal_supi("001", "01", "0000000001",
                           SuciScheme::kProfileA, hn.public_key,
                           rng.bytes(32));
  suci.scheme_output[40] ^= 0x01;
  EXPECT_FALSE(deconceal_suci(suci, hn.private_key).has_value());
}

TEST(Suci, PregeneratedKeyPairMatchesEntropyVariant) {
  // The pool path conceals with a key pair minted ahead of time; fed the
  // same 32 ephemeral bytes it must produce the entropy path's SUCI
  // byte for byte, and spend one scalar mult instead of two.
  Rng rng(21);
  const auto hn = x25519_keypair(rng.bytes(32));
  const Bytes random = rng.bytes(32);
  const X25519KeyPair eph = x25519_keypair(random);

  const OpCounts before = op_counts();
  const Suci pooled = conceal_supi("001", "01", "0000000007",
                                   SuciScheme::kProfileA, hn.public_key, eph);
  EXPECT_EQ((op_counts() - before).x25519_ops, 1u);
  const Suci fresh = conceal_supi("001", "01", "0000000007",
                                  SuciScheme::kProfileA, hn.public_key,
                                  random);
  EXPECT_EQ(pooled.to_string(), fresh.to_string());
  const auto supi = deconceal_suci(pooled, hn.private_key);
  ASSERT_TRUE(supi.has_value());
  EXPECT_EQ(*supi, "001010000000007");
}

// ---------------------------------------------------------------------
// Op counters
// ---------------------------------------------------------------------

TEST(OpCounts, AesAndShaAreCounted) {
  const OpCounts before = op_counts();
  const Aes128 aes(Bytes(16, 1));
  aes.encrypt_block(Bytes(16, 2));
  Sha256::digest(to_bytes("abc"));
  const OpCounts delta = op_counts() - before;
  EXPECT_EQ(delta.aes_blocks, 1u);
  EXPECT_EQ(delta.sha256_blocks, 1u);
}

TEST(OpCounts, MeterReportsCost) {
  PrimitiveCosts costs;
  OpMeter meter;
  const Aes128 aes(Bytes(16, 1));
  aes.encrypt_block(Bytes(16, 2));
  aes.encrypt_block(Bytes(16, 3));
  EXPECT_EQ(meter.ns(costs), 2 * costs.aes_block_ns);
}

TEST(OpCounts, X25519Counted) {
  const OpCounts before = op_counts();
  Rng rng(20);
  x25519_public(rng.bytes(32));
  EXPECT_EQ((op_counts() - before).x25519_ops, 1u);
}

}  // namespace
}  // namespace shield5g::crypto
