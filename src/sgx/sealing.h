// Secret sealing (paper §VI, KI 27).
//
// Models SGX's EGETKEY-based sealing: a seal key derived from the
// platform fuse key and the enclave measurement (MRENCLAVE policy)
// encrypts and authenticates a blob. Only an enclave with the same
// measurement on the same machine can unseal it. The paper uses this
// property to argue that NF container images need not carry plaintext
// credentials — the eUDM P-AKA module in this repo receives its
// subscriber key table exactly this way.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "sgx/enclave.h"

namespace shield5g::sgx {

struct SealedBlob {
  Bytes measurement;  // sealing policy: MRENCLAVE
  Bytes iv;           // 16 bytes
  Bytes ciphertext;
  Bytes mac;          // 16 bytes of HMAC-SHA-256
};

/// Seals `plaintext` to the calling enclave's identity. `iv_entropy`
/// supplies 16 IV bytes (the caller's RNG keeps this deterministic).
SealedBlob seal(Enclave& enclave, ByteView plaintext, ByteView iv_entropy);

/// Unseals; returns nullopt if the enclave measurement does not match
/// the sealing policy or the MAC fails (tamper / wrong platform).
std::optional<Bytes> unseal(Enclave& enclave, const SealedBlob& blob);

}  // namespace shield5g::sgx
