// TLS session model for the service-based interfaces.
//
// 3GPP requires TLS with mutual authentication between VNFs even on the
// same host (paper §IV-B, TS 33.210). This implementation performs the
// cryptography for real — X25519 key agreement, X9.63 key expansion,
// AES-128-CTR + HMAC record protection — so the enclave-side cost of
// record processing is driven by actually-executed primitive operations.
// The handshake is a single-round-trip pinned-key design (certificate
// chains are modeled as handshake payload bytes, not parsed X.509).
//
// Two handshake families share the record layer:
//
//  * The legacy pair client_connect()/server_accept() — the scalar
//    bit-identity oracle. Its wire bytes, RNG draws and key schedule
//    are frozen; every new feature must leave this path untouched.
//  * The resumable family (client_connect_resumable / client_resume /
//    server_accept_resumable) — a PSK-style session-resumption layer.
//    A full resumable handshake additionally derives a resumption
//    secret; the server seals it into an opaque, HMAC-authenticated,
//    single-use ticket (TicketIssuer). A later resumed handshake
//    presents the ticket and derives fresh record keys from the secret
//    with ZERO X25519 scalar multiplications; the server answers with a
//    chained next ticket. Any rejection (tamper, expiry, rotation,
//    replay, unknown epoch) degrades silently to a full handshake.
#pragma once

#include <array>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/secret.h"
#include "common/thread_annotations.h"
#include "crypto/aes128.h"
#include "crypto/op_count.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {
class EphemeralKeyPool;
}  // namespace shield5g::crypto

namespace shield5g::net {

/// A server's long-term identity key (the "certificate" key, pinned by
/// clients the way OAI pins its CA).
struct TlsIdentity {
  crypto::X25519KeyPair key;

  static TlsIdentity generate(Rng& rng);
};

/// One direction's record-protection state. The AES schedule is
/// expanded once at session setup and reused for every record. Key
/// material lives in fixed arrays so building a session never touches
/// the heap beyond the KDF output itself.
struct TlsDirection {
  crypto::Aes128Ctx ctx;                  // expanded 128-bit record key
  std::array<std::uint8_t, 16> base_iv{};
  std::array<std::uint8_t, 32> mac_key{};
  std::uint64_t seq = 0;
};

/// Server-side session-ticket authority (the STEK of RFC 5077 /
/// NewSessionTicket of RFC 8446 §4.6.1, modeled): masks and
/// authenticates resumption secrets into opaque tickets a stateless
/// server can later redeem. Per-epoch encryption/MAC keys derive from
/// one master secret; rotate() retires an epoch (the previous one stays
/// redeemable as a grace window, older tickets reject). A strike
/// register makes every ticket single-use, which combined with ticket
/// chaining gives replay protection across connections.
class TicketIssuer {
 public:
  /// Wire size of a ticket: epoch(4) || expiry(8) || nonce(16) ||
  /// masked secret(32) || MAC(16).
  static constexpr std::size_t kTicketSize = 4 + 8 + 16 + 32 + 16;
  static constexpr std::uint64_t kDefaultLifetimeNs =
      600ULL * 1'000'000'000ULL;  // 10 virtual minutes

  TicketIssuer(SecretView master, std::uint64_t lifetime_ns);

  TicketIssuer(const TicketIssuer&) = delete;
  TicketIssuer& operator=(const TicketIssuer&) = delete;

  /// Seals `secret` into a fresh single-use ticket expiring at
  /// `now_ns + lifetime`. `rng` supplies the 16-byte nonce.
  Bytes issue(const Secret<32>& secret, std::uint64_t now_ns, Rng& rng);

  /// Validates and unseals a ticket. nullopt on tamper (any byte),
  /// expiry, retired epoch, or reuse of a redeemed nonce — callers fall
  /// back to the full handshake in every such case.
  std::optional<Secret<32>> redeem(ByteView ticket, std::uint64_t now_ns);

  /// Advances the key epoch. Tickets from the previous epoch remain
  /// redeemable (grace window); anything older rejects.
  void rotate();

  std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t lifetime_ns() const noexcept { return lifetime_ns_; }

 private:
  struct EpochKeys {
    crypto::Aes128Ctx enc;
    Secret<32> mac;
  };
  EpochKeys keys_for(std::uint32_t epoch) const;

  Secret<32> master_;
  std::uint64_t lifetime_ns_;
  // Atomic: issue/redeem read the live epoch lock-free; only rotate()
  // (under mu_) advances it.
  std::atomic<std::uint32_t> epoch_ SHIELD_GUARDED_BY(mu_){0};
  mutable std::mutex mu_;  // strike register: shared across shard hammers
  // Redeemed-nonce hashes, one set per live epoch (index epoch & 1);
  // rotate() clears the retiring epoch's set. A 64-bit hash collision
  // can only cause a spurious (safe) fallback to the full handshake.
  std::unordered_set<std::uint64_t> seen_[2] SHIELD_GUARDED_BY(mu_);
};

struct TlsClientHandshake;
struct TlsServerAccept;

class TlsSession {
 public:
  /// Client side: generates an ephemeral key and derives the session
  /// immediately from the pinned server public key. `hello_out`
  /// receives the ClientHello wire bytes (ephemeral key + modeled
  /// certificate payload).
  static TlsSession client_connect(ByteView server_public, Rng& rng,
                                   Bytes& hello_out);

  /// Server side: completes the handshake from the ClientHello.
  /// Returns nullopt on a malformed hello.
  static std::optional<TlsSession> server_accept(
      const crypto::X25519KeyPair& server_key, ByteView client_hello,
      Bytes& server_hello_out);

  // ---- Resumable handshake family ----------------------------------
  // Versioned hellos (first byte): 0x01 full, 0x02 resumed,
  // 0x03 server reject. The legacy pair above has no version byte and
  // is never produced or consumed by these entry points.

  // Result structs (defined after the class: they hold a TlsSession by
  // value).
  using ClientHandshake = TlsClientHandshake;
  using ServerAccept = TlsServerAccept;

  /// Full resumable handshake. Draws the ephemeral pair from `pool`
  /// when given (one variable-base mult instead of two mults),
  /// otherwise from `rng` exactly like the legacy path.
  static ClientHandshake client_connect_resumable(
      ByteView server_public, Rng& rng, Bytes& hello_out,
      crypto::EphemeralKeyPool* pool = nullptr);

  /// Resumed handshake: presents `ticket` and derives fresh record keys
  /// from `resumption_secret` and a fresh nonce — zero scalar mults.
  /// Also chains the next resumption secret (the server's reply ticket
  /// binds the same chained value).
  static ClientHandshake client_resume(const Secret<32>& resumption_secret,
                                       ByteView ticket, Rng& rng,
                                       Bytes& hello_out);

  /// Server side of both resumable hellos. A full hello costs one
  /// scalar mult and issues a ticket in the reply; a valid resumed
  /// hello costs zero mults and issues the chained next ticket; a
  /// rejected resumption returns retry_full (silent fallback).
  static ServerAccept server_accept_resumable(
      const crypto::X25519KeyPair& server_key, ByteView client_hello,
      TicketIssuer& issuer, std::uint64_t now_ns, Rng& rng,
      Bytes& server_hello_out);

  /// Ticket embedded in a resumable ServerHello (0x01 or 0x02);
  /// nullopt for rejects or malformed hellos.
  static std::optional<Bytes> hello_ticket(ByteView server_hello);

  /// Protects one application message into a record
  /// (6-byte header || ciphertext || 16-byte MAC).
  Bytes protect(ByteView plaintext);

  /// Verifies and decrypts one record from the peer.
  std::optional<Bytes> unprotect(ByteView record);

  /// In-place variant over a pooled wire buffer: the payload (the
  /// plaintext) is encrypted where it sits, the record header is
  /// prepended into headroom and the MAC appended into tailroom. The
  /// buffer must have been acquired with >= kRecordHeader bytes of
  /// headroom and keep >= 16 bytes of tailroom. Wire bytes are
  /// identical to protect() by construction (shared sealing core).
  void protect_in_place(PooledBuffer& buf);

  /// In-place verify + decrypt: on success the payload window shrinks
  /// to the plaintext (framing chopped off) and true is returned; on a
  /// malformed or forged record the buffer is left untouched.
  bool unprotect_in_place(PooledBuffer& buf);

  /// Record framing: type(1) + version(2) + length(3). The length field
  /// is 24-bit where real TLS uses 16 — the sim frames one message per
  /// record instead of fragmenting at 2^14, so the field must cover the
  /// largest SBI message (64 KiB bodies included).
  static constexpr std::size_t kRecordHeader = 6;
  static constexpr std::size_t kRecordOverhead = kRecordHeader + 16;
  /// Modeled certificate/extension payload in each hello.
  static constexpr std::size_t kHelloPadding = 220;

  /// Primitive operations one record pass executes for a plaintext of
  /// `plaintext_len` bytes — identical for protect and unprotect (CTR
  /// is an xor either way, and verify recomputes the same HMAC). The
  /// bus's co-located fast path charges these counts synthetically
  /// instead of running the record crypto; tests/net_test pins the
  /// formula against an OpMeter around the real protect/unprotect so
  /// the two can never drift.
  static crypto::OpCounts record_op_counts(std::size_t plaintext_len) noexcept;

 private:
  TlsSession(ByteView shared_secret, ByteView salt, bool is_client);
  TlsSession(const Bytes& material, bool is_client);

  TlsDirection send_;
  TlsDirection recv_;
};

/// A completed client handshake plus the secret a future resumption
/// will key from. The ticket binding the secret arrives in the server's
/// hello (see TlsSession::hello_ticket()).
struct TlsClientHandshake {
  TlsSession session;
  Secret<32> resumption_secret;
};

struct TlsServerAccept {
  std::optional<TlsSession> session;
  bool resumed = false;     // ticket redeemed, zero-mult key schedule
  bool retry_full = false;  // resumption rejected: the server hello
                            // carries 0x03, client must retry in full
};

}  // namespace shield5g::net
