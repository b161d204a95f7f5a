// Robustness sweeps: seeded-random malformed input against every codec
// and parser boundary (NAS, HTTP, TLS records, JSON, SUCI), plus
// property sweeps that must hold for arbitrary inputs.
// None of these may crash, hang or throw past the documented surface.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/suci.h"
#include "json/json.h"
#include "net/http.h"
#include "net/tls.h"
#include "nf/nas.h"

namespace shield5g {
namespace {

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};

  Bytes random_garbage() { return rng_.bytes(1 + rng_.uniform(300)); }
};

TEST_P(FuzzSweep, NasDecodeNeverCrashes) {
  for (int i = 0; i < 50; ++i) {
    Bytes data = random_garbage();
    (void)nf::NasMessage::decode(data);
    (void)nf::SecuredNas::decode(data);
    // Valid EPD prefix with garbage body.
    data[0] = 0x7e;
    (void)nf::NasMessage::decode(data);
    data[0] = 0x7f;
    const auto sec = nf::SecuredNas::decode(data);
    if (sec) {
      EXPECT_FALSE(sec->verify(Bytes(16, 1)).has_value());
      EXPECT_FALSE(sec->open(Bytes(16, 1), Bytes(16, 2)).has_value());
    }
  }
}

TEST_P(FuzzSweep, HttpParseNeverCrashes) {
  for (int i = 0; i < 50; ++i) {
    const Bytes data = random_garbage();
    (void)net::HttpRequest::parse(data);
    (void)net::HttpResponse::parse(data);
    // Header-shaped garbage.
    const Bytes shaped = to_bytes("POST /" + to_string(ByteView(data)) +
                                  " HTTP/1.1\r\nx: y\r\n\r\n");
    (void)net::HttpRequest::parse(shaped);
  }
}

TEST_P(FuzzSweep, TlsUnprotectRejectsGarbage) {
  net::TlsIdentity id = net::TlsIdentity::generate(rng_);
  Bytes hello;
  net::TlsSession client =
      net::TlsSession::client_connect(id.key.public_key, rng_, hello);
  Bytes server_hello;
  auto server = net::TlsSession::server_accept(id.key, hello, server_hello);
  ASSERT_TRUE(server.has_value());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(server->unprotect(random_garbage()).has_value());
  }
  // A genuine record still works afterwards (no state corruption).
  const Bytes record = client.protect(to_bytes("still alive"));
  EXPECT_TRUE(server->unprotect(record).has_value());
}

TEST_P(FuzzSweep, JsonParserRejectsOrParses) {
  for (int i = 0; i < 50; ++i) {
    const Bytes data = random_garbage();
    try {
      const json::Value v = json::parse(to_string(ByteView(data)));
      // If it parsed, dumping must not throw.
      (void)v.dump();
    } catch (const std::runtime_error&) {
      // rejected: fine
    }
  }
}

TEST_P(FuzzSweep, SuciFromStringNeverCrashes) {
  for (int i = 0; i < 50; ++i) {
    (void)crypto::Suci::from_string(to_string(ByteView(random_garbage())));
    // Well-formed prefix, garbage scheme output.
    (void)crypto::Suci::from_string("suci-0-001-01-0000-1-1-" +
                                    to_string(ByteView(random_garbage())));
  }
}

TEST_P(FuzzSweep, NasRoundTripProperty) {
  // Arbitrary IE contents survive encode/decode byte-exactly.
  for (int i = 0; i < 20; ++i) {
    nf::NasMessage msg;
    msg.type = nf::NasType::kRegistrationRequest;
    const int ie_count = 1 + static_cast<int>(rng_.uniform(5));
    for (int k = 0; k < ie_count; ++k) {
      msg.set(static_cast<nf::NasIe>(1 + rng_.uniform(90)),
              rng_.bytes(rng_.uniform(64)));
    }
    const auto decoded = nf::NasMessage::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->ies, msg.ies);
  }
}

TEST_P(FuzzSweep, SecuredNasBitFlipAlwaysDetected) {
  const Bytes kint = rng_.bytes(16);
  const Bytes kenc = rng_.bytes(16);
  nf::NasMessage msg;
  msg.type = nf::NasType::kPduSessionEstablishmentRequest;
  msg.set(nf::NasIe::kDnn, rng_.bytes(24));
  const auto sec = nf::SecuredNas::protect_ciphered(
      msg, kint, kenc, static_cast<std::uint32_t>(rng_.uniform(1000)),
      rng_.uniform(2) == 0);
  const Bytes wire = sec.encode();
  for (int i = 0; i < 30; ++i) {
    Bytes flipped = wire;
    // Flip one random bit anywhere past the EPD byte.
    const std::size_t pos = 1 + rng_.uniform(flipped.size() - 1);
    flipped[pos] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
    const auto decoded = nf::SecuredNas::decode(flipped);
    if (!decoded) continue;
    EXPECT_FALSE(decoded->open(kint, kenc).has_value())
        << "bit flip at " << pos << " went undetected";
  }
}

TEST_P(FuzzSweep, TlsRecordBitFlipAlwaysDetected) {
  net::TlsIdentity id = net::TlsIdentity::generate(rng_);
  Bytes hello;
  net::TlsSession client =
      net::TlsSession::client_connect(id.key.public_key, rng_, hello);
  Bytes server_hello;
  auto server = net::TlsSession::server_accept(id.key, hello, server_hello);
  ASSERT_TRUE(server.has_value());
  const Bytes record = client.protect(rng_.bytes(80));
  for (int i = 0; i < 30; ++i) {
    Bytes flipped = record;
    const std::size_t pos = rng_.uniform(flipped.size());
    flipped[pos] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
    if (flipped == record) continue;
    EXPECT_FALSE(server->unprotect(flipped).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace shield5g
