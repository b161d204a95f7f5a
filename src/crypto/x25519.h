// X25519 Diffie-Hellman over Curve25519 (RFC 7748), from scratch.
//
// This is the key-agreement primitive of ECIES "Profile A" used for SUPI
// concealment (TS 33.501 Annex C.3.4.1): the UE encrypts its permanent
// identifier to the home network's public key, producing the SUCI that
// the UDM/SIDF de-conceals inside the trust boundary.
#pragma once

#include <array>

#include "common/bytes.h"
#include "common/secret.h"

namespace shield5g::crypto {

constexpr std::size_t kX25519KeySize = 32;

using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

// Each entry names the kind of point it multiplies, and the kind picks
// the path (crypto/x25519.cpp); every path returns the RFC 7748 bytes.

/// Computes X25519(scalar, u) for a point `u` from the wire, fresh per
/// exchange (a TLS client hello, a SUCI): always the ladder. Both
/// arguments are 32 bytes; the scalar is the private key and is tainted.
X25519Key x25519(SecretView scalar, ByteView u);

/// X25519(scalar, peer) for a key the caller pins (a server's TLS
/// identity, the home network's ECIES key): comb-cached on first use.
X25519Key x25519_pinned(SecretView scalar, ByteView peer);

/// Public key for a private scalar: X25519(scalar, 9).
X25519Key x25519_public(SecretView scalar);

/// Key pair generated from 32 random bytes (clamped internally by the
/// scalar multiplication, per RFC 7748). The private scalar lives in
/// tainted fixed-size storage and zeroizes on destruction.
struct X25519KeyPair {
  Secret<kX25519KeySize> private_key;
  X25519Key public_key;
};
X25519KeyPair x25519_keypair(ByteView random32);

/// Key pair plus the shared secret with the pinned key `peer_public`,
/// fused: the two scalar multiplications (base point and peer point)
/// run back to back and share one batched field inversion for their
/// affine outputs (Montgomery's trick), shaving ~1/3 of a fixed-base
/// multiplication off every TLS client handshake and every ECIES
/// conceal. Outputs are bit-identical to calling x25519_keypair() then
/// x25519_pinned().
X25519KeyPair x25519_keypair_shared(ByteView random32, ByteView peer_public,
                                    X25519Key& shared_out);

}  // namespace shield5g::crypto
