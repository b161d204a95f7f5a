// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// The TS 33.220 generic key-derivation function — and therefore every key
// in the 5G hierarchy (K_AUSF, K_SEAF, K_AMF, NAS keys, RES*) — is an
// HMAC-SHA-256 invocation. Also used as the MAC of the ECIES SUCI scheme
// and the quote signature of the simulated attestation service.
#pragma once

#include "common/bytes.h"

namespace shield5g::crypto {

/// Computes HMAC-SHA-256(key, data). Any key length is accepted.
Bytes hmac_sha256(ByteView key, ByteView data);

/// Truncated variant: the first `n` bytes of the MAC (n <= 32).
Bytes hmac_sha256_trunc(ByteView key, ByteView data, std::size_t n);

/// Writes the first `n` bytes of HMAC-SHA-256(key, part1 || part2) to
/// `out` without materializing the concatenation or allocating (the
/// TLS record layer MACs seq || ciphertext per record and writes the
/// tag straight into the record tail of a pooled buffer).
void hmac_sha256_trunc_into(ByteView key, ByteView part1, ByteView part2,
                            std::uint8_t* out, std::size_t n);

}  // namespace shield5g::crypto
