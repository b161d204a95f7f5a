// Internal AES kernel entry points (not part of the public crypto API).
//
// The AES-NI functions live in their own translation unit compiled with
// the `aes` target attribute so the rest of the library needs no special
// compile flags; the dispatcher in aes128.cpp calls them only after
// checking cpu_has_aesni(). None of these touch the op counters — the
// public Aes128Ctx methods charge blocks before dispatching, which keeps
// the counts identical across backends by construction.
#pragma once

#include <cstddef>
#include <cstdint>

namespace shield5g::crypto::detail {

/// True when this build carries the AES-NI kernel at all (x86-64 only).
bool aesni_compiled() noexcept;

/// Encrypts `nblocks` consecutive 16-byte blocks with the expanded
/// schedule `rk` (11 round keys, 176 bytes).
void aesni_encrypt_blocks(const std::uint8_t* rk, const std::uint8_t* in,
                          std::uint8_t* out, std::size_t nblocks);

/// CTR keystream XOR over `len` bytes starting from counter block
/// `icb[16]`, big-endian increment. `out` may alias `in`.
void aesni_ctr_xor(const std::uint8_t* rk, const std::uint8_t* icb,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t len);

}  // namespace shield5g::crypto::detail
