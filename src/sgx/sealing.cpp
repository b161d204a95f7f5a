#include "sgx/sealing.h"

#include "crypto/aes128.h"
#include "crypto/hmac_sha256.h"
#include "sgx/machine.h"

namespace shield5g::sgx {

namespace {

struct SealKeys {
  Bytes enc_key;  // 16 bytes
  Bytes mac_key;  // 32 bytes
};

// EGETKEY analogue: KDF(fuse key, "seal" || MRENCLAVE).
SealKeys derive_seal_keys(Machine& machine, ByteView measurement) {
  const Bytes okm = crypto::hmac_sha256(
      machine.seal_fuse_key(), concat({to_bytes("seal-key"), measurement}));
  const Bytes okm2 = crypto::hmac_sha256(
      machine.seal_fuse_key(), concat({to_bytes("seal-mac"), measurement}));
  return SealKeys{take(okm, 16), okm2};
}

}  // namespace

SealedBlob seal(Enclave& enclave, ByteView plaintext, ByteView iv_entropy) {
  if (iv_entropy.size() != 16) {
    throw std::invalid_argument("seal: iv_entropy must be 16 bytes");
  }
  const Bytes measurement = enclave.measurement();
  const SealKeys keys = derive_seal_keys(enclave.machine(), measurement);

  SealedBlob blob;
  blob.measurement = measurement;
  blob.iv = Bytes(iv_entropy.begin(), iv_entropy.end());
  blob.ciphertext = crypto::aes128_ctr(keys.enc_key, blob.iv, plaintext);
  blob.mac = crypto::hmac_sha256_trunc(
      keys.mac_key, concat({ByteView(blob.iv), ByteView(blob.ciphertext)}),
      16);
  return blob;
}

std::optional<Bytes> unseal(Enclave& enclave, const SealedBlob& blob) {
  const Bytes measurement = enclave.measurement();
  if (!ct_equal(measurement, blob.measurement)) return std::nullopt;

  const SealKeys keys = derive_seal_keys(enclave.machine(), measurement);
  const Bytes expected_mac = crypto::hmac_sha256_trunc(
      keys.mac_key, concat({ByteView(blob.iv), ByteView(blob.ciphertext)}),
      16);
  if (!ct_equal(expected_mac, blob.mac)) return std::nullopt;
  return crypto::aes128_ctr(keys.enc_key, blob.iv, blob.ciphertext);
}

}  // namespace shield5g::sgx
