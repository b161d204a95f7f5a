// Secret-taint layer: zeroize-on-destruct, the declassification gate
// (including the enclave-grade negative paths), constant-time equality
// and the compile-time sink bans from common/secret.h.
#include "common/secret.h"

#include <gtest/gtest.h>

#include <array>
#include <new>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/hex.h"
#include "common/log.h"
#include "common/stats.h"
#include "json/json.h"
#include "sgx/enclave_context.h"
#include "sgx/machine.h"
#include "sim/clock.h"

namespace shield5g {
namespace {

// ---------------------------------------------------------------------
// Compile-time properties: the taint must not lower implicitly, and
// every serialization sink is a named deleted overload.
// ---------------------------------------------------------------------

static_assert(!std::is_convertible_v<SecretBytes, Bytes>,
              "SecretBytes must not lower to Bytes implicitly");
static_assert(!std::is_convertible_v<SecretBytes, ByteView>,
              "SecretBytes must not lower to ByteView implicitly");
static_assert(!std::is_convertible_v<SecretView, ByteView>,
              "SecretView must not lower to ByteView implicitly");
static_assert(!std::is_convertible_v<Secret<16>, Bytes>,
              "Secret<N> must not lower to Bytes implicitly");
static_assert(std::is_convertible_v<Bytes, SecretBytes>,
              "raising taint stays implicit");
static_assert(std::is_convertible_v<Bytes, SecretView>,
              "raising taint stays implicit");
static_assert(!std::is_constructible_v<json::Value, SecretBytes>,
              "json::Value(secret) is a deleted sink");
static_assert(!std::is_constructible_v<json::Value, SecretView>,
              "json::Value(secret view) is a deleted sink");

template <typename S, typename T, typename = void>
struct is_streamable : std::false_type {};
template <typename S, typename T>
struct is_streamable<
    S, T,
    std::void_t<decltype(std::declval<S&>() << std::declval<const T&>())>>
    : std::true_type {};

// The acceptance-criterion leak, S5G_LOG(...) << kseaf, must not
// compile: LogStream's secret overloads are deleted, as is streaming a
// secret into any other stream type.
static_assert(!is_streamable<LogStream, SecretBytes>::value,
              "LOG << SecretBytes must fail to compile");
static_assert(!is_streamable<LogStream, SecretView>::value,
              "LOG << SecretView must fail to compile");
static_assert(!is_streamable<LogStream, Secret<32>>::value,
              "LOG << Secret<N> must fail to compile");
static_assert(is_streamable<LogStream, int>::value,
              "LogStream still streams plain values");
static_assert(!is_streamable<std::ostringstream, SecretBytes>::value,
              "ostream << SecretBytes must fail to compile");

template <typename T, typename = void>
struct is_hex_encodable : std::false_type {};
template <typename T>
struct is_hex_encodable<
    T, std::void_t<decltype(hex_encode(std::declval<const T&>()))>>
    : std::true_type {};

static_assert(!is_hex_encodable<SecretBytes>::value,
              "hex_encode(secret) is a deleted sink");
static_assert(!is_hex_encodable<Secret<16>>::value,
              "hex_encode(Secret<N>) is a deleted sink");
static_assert(is_hex_encodable<Bytes>::value,
              "hex_encode(Bytes) stays available");

// ---------------------------------------------------------------------
// Zeroize on destruct / move
// ---------------------------------------------------------------------

TEST(SecretZeroize, FixedSecretScribbleAndInspect) {
  // Secret<N> keeps its key inline, so destroying a placement-new
  // instance lets us inspect the caller-owned storage afterwards
  // without touching freed memory (ASan-safe by construction).
  alignas(Secret<16>) std::array<unsigned char, sizeof(Secret<16>)> storage;
  storage.fill(0xEE);
  auto* secret = new (storage.data()) Secret<16>(ByteView(Bytes(16, 0x5A)));
  ASSERT_TRUE(ct_equal(secret->unsafe_bytes(), Bytes(16, 0x5A)));
  secret->~Secret<16>();
  for (unsigned char byte : storage) {
    EXPECT_NE(byte, 0x5A) << "key byte survived destruction";
  }
}

TEST(SecretZeroize, SecureZeroEdgeCases) {
  secure_zero(nullptr, 0);  // an empty SecretBytes passes exactly this
  // Odd lengths at every misalignment: exactly [offset, offset + n) is
  // cleared, the guard bytes on either side are untouched.
  for (std::size_t offset = 1; offset < 8; ++offset) {
    for (const std::size_t n : {1u, 3u, 7u, 15u, 17u, 33u, 63u}) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " n " << n);
      std::array<unsigned char, 96> buf;
      buf.fill(0xA5);
      secure_zero(buf.data() + offset, n);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const bool wiped = i >= offset && i < offset + n;
        EXPECT_EQ(buf[i], wiped ? 0x00 : 0xA5) << "byte " << i;
      }
    }
  }
}

TEST(SecretZeroize, MoveConstructionWipesSource) {
  SecretBytes source(Bytes(16, 0x5A));
  SecretBytes dest(std::move(source));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dest.size(), 16u);
  EXPECT_TRUE(dest == Bytes(16, 0x5A));
}

TEST(SecretZeroize, MoveAssignmentWipesSource) {
  SecretBytes source(Bytes(32, 0x77));
  SecretBytes dest;
  dest = std::move(source);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dest.size(), 32u);
}

// ---------------------------------------------------------------------
// Constant-time equality surface
// ---------------------------------------------------------------------

TEST(SecretEquality, AgainstSecretsAndPlainBytes) {
  const SecretBytes a(Bytes(16, 0x11));
  const SecretBytes b(Bytes(16, 0x11));
  const SecretBytes c(Bytes(16, 0x22));
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a != c);
  // Rewritten candidates: plain bytes on either side.
  const Bytes plain(16, 0x11);
  EXPECT_TRUE(a == plain);
  EXPECT_TRUE(plain == a);
  EXPECT_TRUE(c != plain);
  // Length mismatch is a mismatch, not UB.
  EXPECT_TRUE(a != Bytes(15, 0x11));
}

// ---------------------------------------------------------------------
// Declassification gate + audit counters
// ---------------------------------------------------------------------

class DeclassifyGate : public ::testing::Test {
 protected:
  void SetUp() override { counters_reset(); }

  sim::VirtualClock clock_;
  sgx::Machine machine_{clock_};
  const SecretBytes key_{Bytes(16, 0x5A)};
};

TEST_F(DeclassifyGate, HostGradeReasonPassesWithoutContext) {
  const Bytes out = key_.declassify(DeclassifyReason::kTransport, nullptr);
  EXPECT_EQ(out, Bytes(16, 0x5A));
  EXPECT_EQ(counter_value("secret.declassify.transport.host"), 1u);
  EXPECT_EQ(counter_value("secret.declassify.denied"), 0u);
}

TEST_F(DeclassifyGate, UnsealWithoutContextThrows) {
  EXPECT_THROW(key_.declassify(DeclassifyReason::kUnseal, nullptr),
               std::logic_error);
  EXPECT_EQ(counter_value("secret.declassify.denied"), 1u);
  EXPECT_EQ(counter_value("secret.declassify.denied.unseal"), 1u);
  EXPECT_EQ(counter_value("secret.declassify.unseal.shielded"), 0u);
}

TEST_F(DeclassifyGate, UnsealUnderContainerIsolationThrows) {
  // The paper's non-SGX baseline: a container deployment must not be
  // able to re-expose enclave-grade (sealed) key material (KI 27).
  const auto ctx = sgx::EnclaveContext::container("eudm-aka");
  EXPECT_THROW(key_.declassify(DeclassifyReason::kUnseal, &ctx),
               std::logic_error);
  EXPECT_EQ(counter_value("secret.declassify.denied.unseal"), 1u);
}

TEST_F(DeclassifyGate, UnsealInsideEnclaveBackedContextSucceeds) {
  auto& enclave = machine_.create_enclave(
      sgx::EnclaveConfig{"eudm-aka", 64ULL << 20, 4, false});
  const auto ctx = sgx::EnclaveContext::enclave_backed("eudm-aka", &enclave);
  const Bytes out = key_.declassify(DeclassifyReason::kUnseal, &ctx);
  EXPECT_EQ(out, Bytes(16, 0x5A));
  EXPECT_EQ(counter_value("secret.declassify.unseal.shielded"), 1u);
  EXPECT_EQ(counter_value("secret.declassify.denied"), 0u);
}

TEST_F(DeclassifyGate, ShieldedVersusHostCountersSplitByBacking) {
  auto& enclave = machine_.create_enclave(
      sgx::EnclaveConfig{"eausf-aka", 64ULL << 20, 4, false});
  const auto shielded =
      sgx::EnclaveContext::enclave_backed("eausf-aka", &enclave);
  const auto host = sgx::EnclaveContext::container("ausf");
  (void)key_.declassify(DeclassifyReason::kTransport, &shielded);
  (void)key_.declassify(DeclassifyReason::kTransport, &host);
  (void)key_.declassify(DeclassifyReason::kTransport, &host);
  EXPECT_EQ(counter_value("secret.declassify.transport.shielded"), 1u);
  EXPECT_EQ(counter_value("secret.declassify.transport.host"), 2u);
}

TEST_F(DeclassifyGate, SecretViewAndFixedSecretShareTheGate) {
  const Secret<32> fixed{std::array<std::uint8_t, 32>{}};
  EXPECT_THROW(fixed.declassify(DeclassifyReason::kUnseal, nullptr),
               std::logic_error);
  const SecretView view(key_);
  EXPECT_THROW(view.declassify(DeclassifyReason::kUnseal, nullptr),
               std::logic_error);
  EXPECT_EQ(counter_value("secret.declassify.denied"), 2u);
}

TEST_F(DeclassifyGate, ReasonNamesAndGrades) {
  EXPECT_STREQ(declassify_reason_name(DeclassifyReason::kTransport),
               "transport");
  EXPECT_STREQ(declassify_reason_name(DeclassifyReason::kUnseal), "unseal");
  EXPECT_TRUE(declassify_requires_enclave(DeclassifyReason::kUnseal));
  EXPECT_FALSE(declassify_requires_enclave(DeclassifyReason::kTransport));
  EXPECT_FALSE(declassify_requires_enclave(DeclassifyReason::kProvisioning));
}

// ---------------------------------------------------------------------
// Taint plumbing helpers
// ---------------------------------------------------------------------

TEST(SecretPlumbing, ToSecretCapturesView) {
  const Bytes raw{1, 2, 3, 4};
  const SecretBytes owned = to_secret(SecretView(raw));
  EXPECT_TRUE(owned == raw);
}

TEST(SecretPlumbing, FixedSecretSizeChecks) {
  EXPECT_THROW(Secret<16>(ByteView(Bytes(15, 0))), std::invalid_argument);
  const Secret<4> s(ByteView(Bytes{9, 9, 9, 9}));
  EXPECT_EQ(Secret<4>::size(), 4u);
  EXPECT_TRUE(s == Secret<4>(ByteView(Bytes{9, 9, 9, 9})));
}

}  // namespace
}  // namespace shield5g
