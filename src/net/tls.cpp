#include "net/tls.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "common/hot_stage.h"
#include "crypto/ecies.h"
#include "crypto/eph_pool.h"
#include "crypto/hmac_sha256.h"

namespace shield5g::net {

namespace {

std::array<std::uint8_t, 16> direction_icb(const TlsDirection& dir) {
  std::array<std::uint8_t, 16> icb{};
  for (int i = 0; i < 16; ++i) icb[i] = dir.base_iv[i];
  for (int i = 0; i < 8; ++i) {
    icb[15 - i] = static_cast<std::uint8_t>(
        icb[15 - i] ^ static_cast<std::uint8_t>(dir.seq >> (8 * i)));
  }
  return icb;
}

std::array<std::uint8_t, 8> seq_bytes(std::uint64_t seq) {
  std::array<std::uint8_t, 8> out{};
  for (int i = 0; i < 8; ++i) {
    out[7 - i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return out;
}

TlsDirection make_direction(const Bytes& material, std::size_t off) {
  TlsDirection dir{crypto::Aes128Ctx(ByteView(material).subspan(off, 16)),
                   {}, {}, 0};
  std::memcpy(dir.base_iv.data(), material.data() + off + 16, 16);
  std::memcpy(dir.mac_key.data(), material.data() + off + 32, 32);
  return dir;
}

// Seals one record: `record` points at kRecordHeader + n + 16 writable
// bytes with the n plaintext bytes supplied by `src` (which may alias
// record + kRecordHeader — the CTR xor is index-aligned, so encrypting
// in place is safe). The
// MAC is written straight into the record tail, so sealing allocates
// nothing. Both protect() and protect_in_place() run through here,
// which is what makes their wire bytes identical by construction.
void seal_record(TlsDirection& dir, const std::uint8_t* src,
                 std::uint8_t* record, std::size_t n) {
  constexpr std::size_t kHdr = TlsSession::kRecordHeader;
  const auto icb = direction_icb(dir);
  const std::size_t len = n + 16;
  record[0] = 0x17;  // application data
  record[1] = 0x03;
  record[2] = 0x03;
  record[3] = static_cast<std::uint8_t>(len >> 16);
  record[4] = static_cast<std::uint8_t>(len >> 8);
  record[5] = static_cast<std::uint8_t>(len & 0xff);
  dir.ctx.ctr_xor(icb, ByteView(src, n), record + kHdr);

  const auto seq = seq_bytes(dir.seq);
  crypto::hmac_sha256_trunc_into(dir.mac_key, seq, ByteView(record + kHdr, n),
                                 record + kHdr + n, 16);
  ++dir.seq;
}

// Header + MAC validation shared by both unprotect paths; returns the
// plaintext length without touching `dir.seq` (bumped by the caller
// only after the whole open succeeds).
std::optional<std::size_t> check_record(const TlsDirection& dir,
                                        ByteView record) {
  if (record.size() < TlsSession::kRecordOverhead) return std::nullopt;
  // Validate the record header (type + version); these bytes are not
  // covered by the MAC, so they must be checked explicitly.
  if (record[0] != 0x17 || record[1] != 0x03 || record[2] != 0x03) {
    return std::nullopt;
  }
  constexpr std::size_t kHdr = TlsSession::kRecordHeader;
  const std::size_t len = (static_cast<std::size_t>(record[3]) << 16) |
                          (static_cast<std::size_t>(record[4]) << 8) |
                          record[5];
  if (record.size() != kHdr + len || len < 16) return std::nullopt;
  const ByteView ciphertext = record.subspan(kHdr, len - 16);
  const ByteView mac = record.subspan(kHdr + len - 16, 16);

  const auto seq = seq_bytes(dir.seq);
  std::array<std::uint8_t, 16> expected;
  crypto::hmac_sha256_trunc_into(dir.mac_key, seq, ciphertext,
                                 expected.data(), 16);
  if (!ct_equal(ByteView(expected), mac)) return std::nullopt;
  return ciphertext.size();
}

// ---- Resumable-handshake wire constants and key-schedule labels ----

constexpr std::uint8_t kHelloFull = 0x01;
constexpr std::uint8_t kHelloResumed = 0x02;
constexpr std::uint8_t kHelloReject = 0x03;
constexpr std::size_t kResumeNonceLen = 32;
constexpr std::size_t kSessionMaterialLen = 2 * (16 + 16 + 32);

// Domain-separated KDF inputs: 'R' binds the resumption secret to the
// full handshake's ephemeral, 'K' derives per-resumption record keys
// from the secret and a fresh nonce, 'N' chains the next secret.
Bytes labeled_info(char label, ByteView data) {
  Bytes info;
  info.reserve(1 + data.size());
  info.push_back(static_cast<std::uint8_t>(label));
  info.insert(info.end(), data.begin(), data.end());
  return info;
}

Secret<32> derive_secret32(SecretView key, char label, ByteView data) {
  Bytes raw = crypto::x963_kdf(key, labeled_info(label, data), 32);
  const Secret<32> out{ByteView(raw)};
  secure_zero(raw.data(), raw.size());
  return out;
}

std::uint64_t fnv64(ByteView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

}  // namespace

TlsIdentity TlsIdentity::generate(Rng& rng) {
  return TlsIdentity{crypto::x25519_keypair(rng.bytes(32))};
}

// ---------------------------------------------------------------------
// TicketIssuer
// ---------------------------------------------------------------------

TicketIssuer::TicketIssuer(SecretView master, std::uint64_t lifetime_ns)
    : master_(master.unsafe_bytes()), lifetime_ns_(lifetime_ns) {
  if (lifetime_ns_ == 0) {
    throw std::invalid_argument("TicketIssuer: lifetime must be > 0");
  }
}

TicketIssuer::EpochKeys TicketIssuer::keys_for(std::uint32_t epoch) const {
  // Per-epoch ticket-protection keys off the master secret; deriving on
  // demand keeps rotation stateless (no key archive to manage).
  Bytes material =
      crypto::x963_kdf(master_, labeled_info('T', be_bytes(epoch, 4)), 16 + 32);
  EpochKeys keys{crypto::Aes128Ctx(ByteView(material).subspan(0, 16)),
                 Secret<32>(ByteView(material).subspan(16, 32))};
  secure_zero(material.data(), material.size());
  return keys;
}

Bytes TicketIssuer::issue(const Secret<32>& secret, std::uint64_t now_ns,
                          Rng& rng) {
  const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
  const EpochKeys keys = keys_for(epoch);
  Bytes ticket = concat({ByteView(be_bytes(epoch, 4)),
                         ByteView(be_bytes(now_ns + lifetime_ns_, 8)),
                         ByteView(rng.bytes(16))});
  const Bytes nonce = slice_bytes(ticket, 4 + 8, 16);
  ticket.resize(kTicketSize - 16);
  keys.enc.ctr_xor(nonce, secret.unsafe_bytes(), ticket.data() + 4 + 8 + 16);
  const Bytes tag =
      crypto::hmac_sha256_trunc(keys.mac.unsafe_bytes(), ticket, 16);
  ticket.insert(ticket.end(), tag.begin(), tag.end());
  return ticket;
}

std::optional<Secret<32>> TicketIssuer::redeem(ByteView ticket,
                                               std::uint64_t now_ns) {
  if (ticket.size() != kTicketSize) return std::nullopt;
  const auto epoch = static_cast<std::uint32_t>(be_value(ticket.subspan(0, 4)));
  const std::uint32_t current = epoch_.load(std::memory_order_acquire);
  if (epoch > current || current - epoch > 1) return std::nullopt;

  // Authenticity first: every byte before the tag is MAC-covered, so
  // any single-byte mutation — epoch, expiry, nonce or masked secret —
  // fails here (a mutated epoch selects different keys, which also
  // fails here). Tampered tickets never reach the strike register.
  const EpochKeys keys = keys_for(epoch);
  const Bytes expected = crypto::hmac_sha256_trunc(
      keys.mac.unsafe_bytes(), ticket.subspan(0, kTicketSize - 16), 16);
  if (!ct_equal(expected, ticket.subspan(kTicketSize - 16, 16))) {
    return std::nullopt;
  }
  if (now_ns >= be_value(ticket.subspan(4, 8))) return std::nullopt;

  // Single-use: strike the nonce. Reuse (replay on another connection)
  // rejects and the client falls back to a full handshake.
  const ByteView nonce = ticket.subspan(4 + 8, 16);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!seen_[epoch & 1].insert(fnv64(nonce)).second) return std::nullopt;
  }

  std::array<std::uint8_t, 32> secret{};
  keys.enc.ctr_xor(nonce, ticket.subspan(4 + 8 + 16, 32), secret.data());
  const Secret<32> out(secret);
  secure_zero(secret.data(), secret.size());
  return out;
}

void TicketIssuer::rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t next =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // The slot being recycled held epoch-2's strikes; those tickets are
  // past the grace window and reject on the epoch check alone.
  seen_[next & 1].clear();
}

// ---------------------------------------------------------------------
// TlsSession
// ---------------------------------------------------------------------

TlsSession::TlsSession(ByteView shared_secret, ByteView salt, bool is_client)
    // Key schedule: client->server and server->client keys from the X9.63
    // KDF over the shared secret, salted with the client ephemeral key.
    : TlsSession(crypto::x963_kdf(shared_secret, salt, kSessionMaterialLen),
                 is_client) {}

TlsSession::TlsSession(const Bytes& material, bool is_client)
    : send_(make_direction(material, is_client ? 0 : 64)),
      recv_(make_direction(material, is_client ? 64 : 0)) {}

TlsSession TlsSession::client_connect(ByteView server_public, Rng& rng,
                                      Bytes& hello_out) {
  crypto::X25519Key shared;
  const auto eph =
      crypto::x25519_keypair_shared(rng.bytes(32), server_public, shared);
  hello_out = concat({ByteView(eph.public_key)});
  hello_out.resize(32 + kHelloPadding, 0x5a);  // modeled cert payload
  return TlsSession(shared, eph.public_key, /*is_client=*/true);
}

std::optional<TlsSession> TlsSession::server_accept(
    const crypto::X25519KeyPair& server_key, ByteView client_hello,
    Bytes& server_hello_out) {
  if (client_hello.size() < 32) return std::nullopt;
  const Bytes client_eph = take(client_hello, 32);
  const auto shared = crypto::x25519(server_key.private_key, client_eph);
  server_hello_out.assign(kHelloPadding, 0xa5);  // cert + finished payload
  return TlsSession(shared, client_eph, /*is_client=*/false);
}

TlsSession::ClientHandshake TlsSession::client_connect_resumable(
    ByteView server_public, Rng& rng, Bytes& hello_out,
    crypto::EphemeralKeyPool* pool) {
  crypto::X25519Key shared;
  crypto::X25519KeyPair eph;
  if (pool != nullptr) {
    // Pregenerated ephemeral: only the variable-base mult against the
    // server key runs in-line.
    eph = pool->acquire();
    shared = crypto::x25519(eph.private_key, server_public);
  } else {
    eph = crypto::x25519_keypair_shared(rng.bytes(32), server_public, shared);
  }
  hello_out.assign(1, kHelloFull);
  hello_out.insert(hello_out.end(), eph.public_key.begin(),
                   eph.public_key.end());
  hello_out.resize(1 + 32 + kHelloPadding, 0x5a);
  return ClientHandshake{
      TlsSession(shared, eph.public_key, /*is_client=*/true),
      derive_secret32(shared, 'R', eph.public_key)};
}

TlsSession::ClientHandshake TlsSession::client_resume(
    const Secret<32>& resumption_secret, ByteView ticket, Rng& rng,
    Bytes& hello_out) {
  const Bytes nonce = rng.bytes(kResumeNonceLen);
  Bytes material = crypto::x963_kdf(resumption_secret,
                                    labeled_info('K', nonce),
                                    kSessionMaterialLen);
  hello_out.assign(1, kHelloResumed);
  hello_out.insert(hello_out.end(), nonce.begin(), nonce.end());
  const Bytes len = be_bytes(ticket.size(), 2);
  hello_out.insert(hello_out.end(), len.begin(), len.end());
  hello_out.insert(hello_out.end(), ticket.begin(), ticket.end());
  ClientHandshake out{TlsSession(material, /*is_client=*/true),
                      derive_secret32(resumption_secret, 'N', nonce)};
  secure_zero(material.data(), material.size());
  return out;
}

TlsSession::ServerAccept TlsSession::server_accept_resumable(
    const crypto::X25519KeyPair& server_key, ByteView client_hello,
    TicketIssuer& issuer, std::uint64_t now_ns, Rng& rng,
    Bytes& server_hello_out) {
  ServerAccept out;
  if (client_hello.empty()) return out;

  if (client_hello[0] == kHelloFull) {
    if (client_hello.size() < 1 + 32) return out;
    const Bytes client_eph = slice_bytes(client_hello, 1, 32);
    const auto shared = crypto::x25519(server_key.private_key, client_eph);
    const Secret<32> secret = derive_secret32(shared, 'R', client_eph);
    const Bytes ticket = issuer.issue(secret, now_ns, rng);
    server_hello_out.assign(1, kHelloFull);
    const Bytes len = be_bytes(ticket.size(), 2);
    server_hello_out.insert(server_hello_out.end(), len.begin(), len.end());
    server_hello_out.insert(server_hello_out.end(), ticket.begin(),
                            ticket.end());
    server_hello_out.resize(server_hello_out.size() + kHelloPadding, 0xa5);
    out.session.emplace(TlsSession(shared, client_eph, /*is_client=*/false));
    return out;
  }

  if (client_hello[0] == kHelloResumed) {
    // Every failure below — short hello, bad length field, tampered or
    // expired or replayed ticket — takes the same silent-fallback exit.
    const auto reject = [&]() {
      server_hello_out.assign(1, kHelloReject);
      out.retry_full = true;
      return out;
    };
    if (client_hello.size() < 1 + kResumeNonceLen + 2) return reject();
    const ByteView nonce = client_hello.subspan(1, kResumeNonceLen);
    const std::size_t len =
        be_value(client_hello.subspan(1 + kResumeNonceLen, 2));
    if (client_hello.size() != 1 + kResumeNonceLen + 2 + len) return reject();
    const auto secret =
        issuer.redeem(client_hello.subspan(1 + kResumeNonceLen + 2), now_ns);
    // ct-audited(ticket redeem validity; a reject is observable on the wire by design)
    if (!secret) return reject();

    // Zero scalar mults from here on: record keys and the chained next
    // secret come from the KDF alone.
    Bytes material = crypto::x963_kdf(*secret, labeled_info('K', nonce),
                                      kSessionMaterialLen);
    const Secret<32> next = derive_secret32(*secret, 'N', nonce);
    const Bytes next_ticket = issuer.issue(next, now_ns, rng);
    server_hello_out.assign(1, kHelloResumed);
    const Bytes tlen = be_bytes(next_ticket.size(), 2);
    server_hello_out.insert(server_hello_out.end(), tlen.begin(), tlen.end());
    server_hello_out.insert(server_hello_out.end(), next_ticket.begin(),
                            next_ticket.end());
    out.session.emplace(TlsSession(material, /*is_client=*/false));
    secure_zero(material.data(), material.size());
    out.resumed = true;
    return out;
  }

  return out;  // unknown version byte: malformed
}

std::optional<Bytes> TlsSession::hello_ticket(ByteView server_hello) {
  if (server_hello.size() < 3) return std::nullopt;
  if (server_hello[0] != kHelloFull && server_hello[0] != kHelloResumed) {
    return std::nullopt;
  }
  const std::size_t len = be_value(server_hello.subspan(1, 2));
  if (server_hello.size() < 3 + len) return std::nullopt;
  return slice_bytes(server_hello, 3, len);
}

crypto::OpCounts TlsSession::record_op_counts(
    std::size_t plaintext_len) noexcept {
  // One record pass = CTR over the payload + HMAC-SHA256 over
  // seq(8) || ciphertext(n). The HMAC key is 32 <= 64 bytes, so the
  // inner hash runs over ipad(64) || message and the outer over
  // opad(64) || digest(32): floor((72 + 8 + n) / 64) + 1 inner blocks
  // plus 2 outer blocks. protect and unprotect execute exactly the
  // same primitive counts (verify recomputes the MAC, decrypt is the
  // same xor), so one formula covers both directions.
  crypto::OpCounts ops;
  ops.aes_blocks = (plaintext_len + 15) / 16;
  ops.sha256_blocks = (80 + plaintext_len) / 64 + 3;
  return ops;
}

Bytes TlsSession::protect(ByteView plaintext) {
  ScopedStage timer(HotStage::kCrypto);
  Bytes record(kRecordHeader + plaintext.size() + 16);
  seal_record(send_, plaintext.data(), record.data(), plaintext.size());
  return record;
}

void TlsSession::protect_in_place(PooledBuffer& buf) {
  ScopedStage timer(HotStage::kCrypto);
  const std::size_t n = buf.size();
  buf.prepend(kRecordHeader);
  buf.grow(16);
  seal_record(send_, buf.data() + kRecordHeader, buf.data(), n);
}

std::optional<Bytes> TlsSession::unprotect(ByteView record) {
  ScopedStage timer(HotStage::kCrypto);
  const auto n = check_record(recv_, record);
  if (!n) return std::nullopt;
  const auto icb = direction_icb(recv_);
  ++recv_.seq;
  Bytes plaintext(*n);
  recv_.ctx.ctr_xor(icb, record.subspan(kRecordHeader, *n), plaintext.data());
  return plaintext;
}

bool TlsSession::unprotect_in_place(PooledBuffer& buf) {
  ScopedStage timer(HotStage::kCrypto);
  const auto n = check_record(recv_, buf.view());
  if (!n) return false;
  const auto icb = direction_icb(recv_);
  ++recv_.seq;
  recv_.ctx.ctr_xor(icb, ByteView(buf.data() + kRecordHeader, *n),
                    buf.data() + kRecordHeader);
  buf.chop(16);
  buf.chop_front(kRecordHeader);
  return true;
}

}  // namespace shield5g::net
