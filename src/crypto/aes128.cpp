#include "crypto/aes128.h"

#include <stdexcept>

#include "common/secret.h"
#include "crypto/aes128_kernels.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/op_count.h"

namespace shield5g::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

using State = std::array<std::uint8_t, 16>;  // column-major, as in FIPS-197

void add_round_key(State& s, const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void sub_bytes(State& s) noexcept {
  for (auto& b : s) b = kSbox[b];
}

// State layout: s[4*c + r] is row r, column c.
void shift_rows(State& s) noexcept {
  State t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[4 * c + r] = t[4 * ((c + r) % 4) + r];
    }
  }
}

void mix_columns(State& s) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

// Scalar reference kernels. They do NOT charge op counts — the public
// methods do, before dispatch, so both backends count identically.
void scalar_encrypt_block(const std::uint8_t* rk, const std::uint8_t* in,
                          std::uint8_t* out) noexcept {
  State s;
  for (int i = 0; i < 16; ++i) s[i] = in[i];
  add_round_key(s, rk);
  for (int round = 1; round < 10; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, rk + 16 * round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, rk + 160);
  for (int i = 0; i < 16; ++i) out[i] = s[i];
}

bool use_aesni() noexcept {
  return active_backend() == CryptoBackend::kAccelerated &&
         detail::aesni_compiled() && cpu_has_aesni();
}

}  // namespace

Aes128Ctx::Aes128Ctx(ByteView key) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("Aes128Ctx: key must be 16 bytes");
  }
  for (std::size_t i = 0; i < kKeySize; ++i) round_keys_[i] = key[i];
  for (int i = 4; i < 44; ++i) {
    std::uint8_t t[4] = {round_keys_[4 * (i - 1)], round_keys_[4 * (i - 1) + 1],
                         round_keys_[4 * (i - 1) + 2],
                         round_keys_[4 * (i - 1) + 3]};
    if (i % 4 == 0) {
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[4 * i + j] =
          static_cast<std::uint8_t>(round_keys_[4 * (i - 4) + j] ^ t[j]);
    }
  }
}

Aes128Ctx::~Aes128Ctx() {
  secure_zero(round_keys_.data(), round_keys_.size());
}

std::array<std::uint8_t, Aes128Ctx::kBlockSize> Aes128Ctx::encrypt_block(
    ByteView plaintext) const {
  if (plaintext.size() != kBlockSize) {
    throw std::invalid_argument("Aes128Ctx::encrypt_block: need 16 bytes");
  }
  ++op_counts().aes_blocks;
  std::array<std::uint8_t, kBlockSize> out;
  if (use_aesni()) {
    detail::aesni_encrypt_blocks(round_keys_.data(), plaintext.data(),
                                 out.data(), 1);
  } else {
    scalar_encrypt_block(round_keys_.data(), plaintext.data(), out.data());
  }
  return out;
}

void Aes128Ctx::ctr_xor(ByteView icb, ByteView data,
                        std::uint8_t* out) const {
  if (icb.size() != kBlockSize) {
    throw std::invalid_argument("Aes128Ctx::ctr_xor: counter block size");
  }
  const std::size_t nblocks = (data.size() + kBlockSize - 1) / kBlockSize;
  op_counts().aes_blocks += nblocks;
  if (use_aesni()) {
    detail::aesni_ctr_xor(round_keys_.data(), icb.data(), data.data(), out,
                          data.size());
    return;
  }
  std::array<std::uint8_t, 16> counter{};
  for (int i = 0; i < 16; ++i) counter[i] = icb[i];
  std::size_t off = 0;
  while (off < data.size()) {
    std::array<std::uint8_t, 16> keystream;
    scalar_encrypt_block(round_keys_.data(), counter.data(),
                         keystream.data());
    const std::size_t n = std::min<std::size_t>(16, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = static_cast<std::uint8_t>(data[off + i] ^ keystream[i]);
    }
    // Increment the counter block as a 128-bit big-endian integer.
    for (int i = 15; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
    off += n;
  }
}

Bytes aes128_ctr(ByteView key, ByteView icb, ByteView data) {
  const Aes128Ctx ctx(key);
  return aes128_ctr(ctx, icb, data);
}

Bytes aes128_ctr(const Aes128Ctx& ctx, ByteView icb, ByteView data) {
  Bytes out(data.size());
  ctx.ctr_xor(icb, data, out.data());
  return out;
}

}  // namespace shield5g::crypto
