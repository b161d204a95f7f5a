#include "crypto/ecies.h"

#include <stdexcept>

#include "crypto/aes128.h"
#include "crypto/hmac_sha256.h"
#include "crypto/sha256.h"

namespace shield5g::crypto {

namespace {
constexpr std::size_t kMacTagLen = 8;   // Profile A: 64-bit MAC tag
constexpr std::size_t kEncKeyLen = 16;  // AES-128 key
constexpr std::size_t kIcbLen = 16;     // initial counter block
constexpr std::size_t kMacKeyLen = 32;  // HMAC-SHA-256 key

struct DerivedKeys {
  Aes128Ctx enc;  // schedule expanded straight off the KDF output
  SecretBytes mac_key;
  Bytes icb;
};

DerivedKeys derive_keys(SecretView shared_secret, ByteView eph_public) {
  const SecretBytes material(
      x963_kdf(shared_secret, eph_public, kEncKeyLen + kIcbLen + kMacKeyLen));
  const ByteView raw = material.unsafe_bytes();
  return DerivedKeys{
      Aes128Ctx(raw.subspan(0, kEncKeyLen)),
      SecretBytes(raw.subspan(kEncKeyLen + kIcbLen, kMacKeyLen)),
      slice_bytes(raw, kEncKeyLen, kIcbLen)};
}
}  // namespace

Bytes x963_kdf(SecretView shared_secret, ByteView shared_info,
               std::size_t out_len) {
  Bytes out;
  std::uint32_t counter = 1;
  while (out.size() < out_len) {
    Sha256 hash;
    hash.update(shared_secret.unsafe_bytes());
    const Bytes ctr = be_bytes(counter, 4);
    hash.update(ctr);
    hash.update(shared_info);
    const auto digest = hash.finalize();
    out.insert(out.end(), digest.begin(), digest.end());
    ++counter;
  }
  out.resize(out_len);
  return out;
}

Bytes EciesCiphertext::serialize() const {
  return concat({ByteView(ephemeral_public), ByteView(ciphertext),
                 ByteView(mac_tag)});
}

EciesCiphertext EciesCiphertext::deserialize(ByteView data,
                                             std::size_t pt_len) {
  if (data.size() != kX25519KeySize + pt_len + kMacTagLen) {
    throw std::invalid_argument("EciesCiphertext: bad length");
  }
  EciesCiphertext ct;
  ct.ephemeral_public = take(data, kX25519KeySize);
  ct.ciphertext = slice_bytes(data, kX25519KeySize, pt_len);
  ct.mac_tag = slice_bytes(data, kX25519KeySize + pt_len, kMacTagLen);
  return ct;
}

namespace {
EciesCiphertext encrypt_with(const X25519KeyPair& eph, const X25519Key& shared,
                             ByteView plaintext) {
  const DerivedKeys keys = derive_keys(shared, eph.public_key);

  EciesCiphertext ct;
  ct.ephemeral_public = Bytes(eph.public_key.begin(), eph.public_key.end());
  ct.ciphertext = aes128_ctr(keys.enc, keys.icb, plaintext);
  ct.mac_tag =
      hmac_sha256_trunc(keys.mac_key.unsafe_bytes(), ct.ciphertext, kMacTagLen);
  return ct;
}
}  // namespace

EciesCiphertext ecies_encrypt(ByteView receiver_public, ByteView plaintext,
                              ByteView ephemeral_random) {
  X25519Key shared;
  const X25519KeyPair eph =
      x25519_keypair_shared(ephemeral_random, receiver_public, shared);
  return encrypt_with(eph, shared, plaintext);
}

EciesCiphertext ecies_encrypt(ByteView receiver_public, ByteView plaintext,
                              const X25519KeyPair& ephemeral) {
  const X25519Key shared =
      x25519_pinned(ephemeral.private_key, receiver_public);
  return encrypt_with(ephemeral, shared, plaintext);
}

std::optional<Bytes> ecies_decrypt(SecretView receiver_private,
                                   const EciesCiphertext& ct) {
  const X25519Key shared = x25519(receiver_private, ct.ephemeral_public);
  const DerivedKeys keys = derive_keys(shared, ct.ephemeral_public);

  const Bytes expected_tag =
      hmac_sha256_trunc(keys.mac_key.unsafe_bytes(), ct.ciphertext, kMacTagLen);
  if (!ct_equal(expected_tag, ct.mac_tag)) return std::nullopt;
  return aes128_ctr(keys.enc, keys.icb, ct.ciphertext);
}

}  // namespace shield5g::crypto
