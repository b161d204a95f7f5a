// Secret-taint types for 5G key material (paper Table I / Table V).
//
// K, OPc, CK/IK, K_AUSF, K_SEAF, K_AMF and the NAS/gNB keys derived
// from them must never reach a log line, a JSON body or an HTTP
// response unaudited — that boundary is the entire point of the P-AKA
// enclaves. `SecretBytes` (heap, variable length) and `Secret<N>`
// (fixed length, in-place) make the discipline a compile-time property:
//
//   * no implicit conversion to `Bytes`/`ByteView` — a tainted value
//     cannot silently flow into hex_encode/json/LOG sinks (those
//     overloads are additionally deleted for clear diagnostics);
//   * zeroize-on-destruct — freed buffers do not retain key bytes;
//   * equality is constant-time (length leaks only), `==`/`!=` against
//     plain byte ranges included, so MAC/RES comparison can never
//     regress to an early-exit memcmp;
//   * the only way *out* is `declassify(DeclassifyReason, const
//     sgx::EnclaveContext*)` — an audited, counted gate. Unsealing-grade
//     reasons require an enclave-backed context (KI 27): re-exposing a
//     sealed long-term key under container isolation throws.
//
// Raising taint is implicit (a `Bytes` converts to `SecretBytes` /
// `SecretView` freely — wrapping sooner is always safe); lowering taint
// is explicit and audited. Crypto primitives consume keys through
// `SecretView` and may read the raw range via `unsafe_bytes()`, which
// tools/shield_analyze flags outside the crypto/NAS cipher layers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "common/bytes.h"

namespace shield5g::sgx {
class EnclaveContext;
}  // namespace shield5g::sgx

namespace shield5g {

/// Zeroizes `n` bytes at `p` (null when n == 0) at memset speed, behind
/// a compiler barrier so the optimizer can never elide the wipe.
void secure_zero(void* p, std::size_t n) noexcept;

/// Why a secret is being lowered to plain bytes. Every declassification
/// bumps a `secret.declassify.<reason>.{shielded,host}` counter in
/// common/stats; denied attempts bump `secret.declassify.denied`.
enum class DeclassifyReason : std::uint8_t {
  /// Hex field in an SBI body for a peer NF / P-AKA module. Host-grade:
  /// legal everywhere, but the shielded/host counter split is the
  /// paper's Table V audit of which deployments expose key material.
  kTransport = 0,
  /// Operator provisioning path: serializing the subscriber key table
  /// for sealing, or burning credentials into a USIM. Host-grade.
  kProvisioning = 1,
  /// Re-exposing long-term key material that arrived sealed to an
  /// enclave measurement (KI 27). Enclave-grade: requires an
  /// enclave-backed context or the gate throws std::logic_error.
  kUnseal = 2,
  /// The value is protocol-public by construction (RES*, AUTN fields,
  /// MACs) and leaves the derivation as wire material. Host-grade.
  kProtocolOutput = 3,
  /// Unit-test comparison against published vectors. Host-grade;
  /// tools/shield_analyze bans this reason (and reveal_for_test) in src/.
  kTestVector = 4,
};

/// Human-readable reason slug, e.g. "transport".
const char* declassify_reason_name(DeclassifyReason reason) noexcept;

/// True for reasons that may only fire inside an enclave-backed
/// deployment (currently kUnseal).
bool declassify_requires_enclave(DeclassifyReason reason) noexcept;

namespace detail {
/// The audited gate shared by SecretBytes and Secret<N>: checks the
/// context against the reason's grade, bumps the stats counters and
/// copies the plaintext out. Throws std::logic_error on an
/// enclave-grade reason without an enclave-backed context.
Bytes declassify_copy(ByteView data, DeclassifyReason reason,
                      const sgx::EnclaveContext* ctx);
}  // namespace detail

// ---------------------------------------------------------------------
// Secret<N>: fixed-size key material (e.g. an X25519 private scalar).
// ---------------------------------------------------------------------
template <std::size_t N>
class Secret {
 public:
  constexpr Secret() = default;
  /// Raising taint is implicit.
  Secret(const std::array<std::uint8_t, N>& raw) : data_(raw) {}
  explicit Secret(ByteView raw) {
    if (raw.size() != N) throw std::invalid_argument("Secret<N>: size");
    for (std::size_t i = 0; i < N; ++i) data_[i] = raw[i];
  }

  Secret(const Secret&) = default;
  Secret& operator=(const Secret&) = default;
  ~Secret() { secure_zero(data_.data(), N); }

  static constexpr std::size_t size() noexcept { return N; }

  /// Constant-time equality; != is synthesized.
  bool operator==(const Secret& other) const noexcept {
    return ct_equal(ByteView(data_), ByteView(other.data_));
  }

  /// Audited exit gate; see DeclassifyReason.
  Bytes declassify(DeclassifyReason reason,
                   const sgx::EnclaveContext* ctx) const {
    return detail::declassify_copy(ByteView(data_), reason, ctx);
  }

  /// Raw range for feeding crypto primitives. Never pass the result to
  /// a serialization or logging sink — shield_analyze flags this
  /// identifier next to sinks and outside the crypto layer.
  ByteView unsafe_bytes() const noexcept { return ByteView(data_); }

 private:
  std::array<std::uint8_t, N> data_{};
};

// ---------------------------------------------------------------------
// SecretBytes: variable-length key material.
// ---------------------------------------------------------------------
class SecretBytes {
 public:
  SecretBytes() = default;
  /// Raising taint is implicit (copies or steals the buffer).
  SecretBytes(Bytes raw) noexcept : data_(std::move(raw)) {}
  SecretBytes(ByteView raw) : data_(raw.begin(), raw.end()) {}

  SecretBytes(const SecretBytes&) = default;
  SecretBytes(SecretBytes&& other) noexcept : data_(std::move(other.data_)) {
    other.wipe();
  }
  SecretBytes& operator=(const SecretBytes& other) {
    if (this != &other) {
      wipe();
      data_ = other.data_;
    }
    return *this;
  }
  SecretBytes& operator=(SecretBytes&& other) noexcept {
    if (this != &other) {
      wipe();
      data_ = std::move(other.data_);
      other.wipe();
    }
    return *this;
  }
  ~SecretBytes() { wipe(); }

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Constant-time equality against another secret.
  bool operator==(const SecretBytes& other) const noexcept {
    return ct_equal(ByteView(data_), ByteView(other.data_));
  }
  /// Constant-time equality against plain bytes (a received MAC/RES*
  /// field); the reversed operands and != are synthesized.
  template <typename T,
            typename = std::enable_if_t<
                std::is_convertible_v<const T&, ByteView> &&
                !std::is_same_v<std::decay_t<T>, SecretBytes>>>
  bool operator==(const T& plain) const noexcept {
    return ct_equal(ByteView(data_), ByteView(plain));
  }

  /// Audited exit gate; see DeclassifyReason.
  Bytes declassify(DeclassifyReason reason,
                   const sgx::EnclaveContext* ctx) const {
    return detail::declassify_copy(ByteView(data_), reason, ctx);
  }

  /// Convenience for unit tests comparing against published vectors
  /// (equivalent to declassify(kTestVector, nullptr)). shield_analyze bans
  /// this identifier anywhere under src/.
  Bytes reveal_for_test() const {
    return declassify(DeclassifyReason::kTestVector, nullptr);
  }

  /// Raw range for feeding crypto primitives; see Secret::unsafe_bytes.
  ByteView unsafe_bytes() const noexcept { return ByteView(data_); }

 private:
  void wipe() noexcept {
    secure_zero(data_.data(), data_.size());
    data_.clear();
  }

  Bytes data_;
};

// ---------------------------------------------------------------------
// SecretView: non-owning tainted range — the parameter type of every
// key-consuming crypto function. Implicitly constructible from plain
// byte ranges (raising taint) and from the owning secret types; never
// implicitly convertible back.
// ---------------------------------------------------------------------
class SecretView {
 public:
  constexpr SecretView() = default;
  template <typename T,
            typename = std::enable_if_t<
                std::is_convertible_v<const T&, ByteView>>>
  constexpr SecretView(const T& raw) : view_(raw) {}  // NOLINT(runtime/explicit)
  SecretView(const SecretBytes& s) noexcept : view_(s.unsafe_bytes()) {}
  template <std::size_t N>
  SecretView(const Secret<N>& s) noexcept : view_(s.unsafe_bytes()) {}

  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }

  /// Constant-time equality.
  bool operator==(const SecretView& other) const noexcept {
    return ct_equal(view_, other.view_);
  }

  Bytes declassify(DeclassifyReason reason,
                   const sgx::EnclaveContext* ctx) const {
    return detail::declassify_copy(view_, reason, ctx);
  }

  /// Raw range for feeding crypto primitives; see Secret::unsafe_bytes.
  ByteView unsafe_bytes() const noexcept { return view_; }

 private:
  ByteView view_;
};

/// Captures an owning copy of a tainted view.
inline SecretBytes to_secret(SecretView v) {
  return SecretBytes(Bytes(v.unsafe_bytes().begin(), v.unsafe_bytes().end()));
}

// ---------------------------------------------------------------------
// Deleted sinks: make the failure mode a named, documented error.
// Streaming (std::ostream, the LOG() stream, or anything else) never
// accepts tainted types.
// ---------------------------------------------------------------------
template <typename Stream>
Stream& operator<<(Stream&, const SecretBytes&) = delete;
template <typename Stream>
Stream& operator<<(Stream&, const SecretView&) = delete;
template <typename Stream, std::size_t N>
Stream& operator<<(Stream&, const Secret<N>&) = delete;

}  // namespace shield5g
