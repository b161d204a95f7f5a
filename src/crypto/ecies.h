// ECIES Profile A (TS 33.501 Annex C.3): X25519 key agreement,
// ANSI X9.63 KDF with SHA-256, AES-128-CTR confidentiality and a 64-bit
// HMAC-SHA-256 MAC tag.
//
// The UE uses this to conceal its SUPI into a SUCI against the home
// network public key; the UDM's SIDF runs the reverse operation. There is
// no official 3GPP test vector for Profile A, so correctness here is
// established by round-trip and tamper-detection property tests plus the
// RFC 7748 vectors for the X25519 core.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

struct EciesCiphertext {
  Bytes ephemeral_public;  // 32 bytes
  Bytes ciphertext;        // same length as the plaintext
  Bytes mac_tag;           // 8 bytes

  /// Wire encoding: eph_pub || ciphertext || tag.
  Bytes serialize() const;
  static EciesCiphertext deserialize(ByteView data, std::size_t pt_len);
};

/// ANSI X9.63 KDF with SHA-256: counter-mode expansion of the shared
/// secret, with `shared_info` appended to each hash input. The shared
/// secret is tainted (DH output); the expansion is split into keys by
/// the caller.
Bytes x963_kdf(SecretView shared_secret, ByteView shared_info,
               std::size_t out_len);

/// Encrypts `plaintext` to the receiver's X25519 public key.
/// `ephemeral_random` supplies the 32 bytes of ephemeral-key entropy so
/// callers control determinism.
EciesCiphertext ecies_encrypt(ByteView receiver_public, ByteView plaintext,
                              ByteView ephemeral_random);

/// Variant consuming a pregenerated ephemeral key pair (see
/// crypto/eph_pool.h): skips the fixed-base multiplication and pays
/// only the shared-secret mult against the receiver key. Output is
/// identical to the entropy variant fed the same ephemeral scalar.
EciesCiphertext ecies_encrypt(ByteView receiver_public, ByteView plaintext,
                              const X25519KeyPair& ephemeral);

/// Decrypts; returns nullopt if the MAC tag does not verify. The
/// receiver's private scalar is the home-network secret.
std::optional<Bytes> ecies_decrypt(SecretView receiver_private,
                                   const EciesCiphertext& ct);

}  // namespace shield5g::crypto
