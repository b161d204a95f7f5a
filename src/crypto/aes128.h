// AES-128 block cipher (FIPS-197).
//
// This is the primitive under MILENAGE (TS 35.206) and the AES-CTR
// stream used by the ECIES SUCI protection scheme (TS 33.501 Annex C).
// Two kernels back the same interface: a byte-oriented scalar
// reference and an AES-NI path selected at runtime (see
// crypto/cpu_dispatch.h). Both execute the same block operations and
// charge the same op counts, so virtual-time results never depend on
// which one ran. Neither is constant-time against cache probes: the
// scalar kernel indexes the S-box table, and so does the key schedule,
// which is scalar on both backends.
//
// The expanded key schedule lives in the context object: expand once,
// encrypt many. Milenage, ECIES and the TLS record layer all hold a
// context instead of re-expanding the key per call.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace shield5g::crypto {

class Aes128Ctx {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  /// Expands the 128-bit key. Throws if key.size() != 16.
  explicit Aes128Ctx(ByteView key);

  Aes128Ctx(const Aes128Ctx&) = default;
  Aes128Ctx& operator=(const Aes128Ctx&) = default;

  /// The schedule is key material: wipe it on destruction.
  ~Aes128Ctx();

  /// Encrypts exactly one 16-byte block.
  std::array<std::uint8_t, kBlockSize> encrypt_block(ByteView plaintext) const;

  /// Decrypts exactly one 16-byte block.
  std::array<std::uint8_t, kBlockSize> decrypt_block(ByteView ciphertext) const;

  /// Counter-mode keystream XOR: writes data.size() bytes to `out`
  /// (which may alias `data`). `icb` is the 16-byte initial counter
  /// block, incremented big-endian across the whole stream.
  void ctr_xor(ByteView icb, ByteView data, std::uint8_t* out) const;

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

/// Historical name; the context semantics are the same type.
using Aes128 = Aes128Ctx;

/// AES-128 in counter mode: encrypt == decrypt. Convenience form that
/// expands `key` once for this call.
Bytes aes128_ctr(ByteView key, ByteView icb, ByteView data);

/// Counter mode against an already-expanded schedule (the hot path).
Bytes aes128_ctr(const Aes128Ctx& ctx, ByteView icb, ByteView data);

}  // namespace shield5g::crypto
