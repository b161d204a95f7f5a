// AES-NI kernel. Compiled with the `aes` target attribute in this TU
// only; callers reach it through crypto/aes128_kernels.h after checking
// cpu_has_aesni(). Round keys come from the portable key expansion in
// Aes128Ctx — the hardware instructions consume the standard FIPS-197
// schedule directly.
#include "crypto/aes128_kernels.h"

#if defined(__x86_64__)
#define SHIELD5G_HAVE_AESNI 1
#include <immintrin.h>
#endif

namespace shield5g::crypto::detail {

#if defined(SHIELD5G_HAVE_AESNI)

bool aesni_compiled() noexcept { return true; }

namespace {

__attribute__((target("aes,sse4.1"))) inline __m128i
encrypt_one(const __m128i* rk, __m128i block) noexcept {
  block = _mm_xor_si128(block, rk[0]);
  for (int round = 1; round < 10; ++round) {
    block = _mm_aesenc_si128(block, rk[round]);
  }
  return _mm_aesenclast_si128(block, rk[10]);
}

}  // namespace

__attribute__((target("aes,sse4.1"))) void aesni_encrypt_blocks(
    const std::uint8_t* rk_bytes, const std::uint8_t* in, std::uint8_t* out,
    std::size_t nblocks) {
  __m128i rk[11];
  for (int i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rk_bytes + 16 * i));
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    const __m128i block = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(in + 16 * b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b),
                     encrypt_one(rk, block));
  }
}

__attribute__((target("aes,sse4.1"))) void aesni_ctr_xor(
    const std::uint8_t* rk_bytes, const std::uint8_t* icb,
    const std::uint8_t* in, std::uint8_t* out, std::size_t len) {
  __m128i rk[11];
  for (int i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rk_bytes + 16 * i));
  }
  // Track the counter as two big-endian 64-bit halves; rebuild the
  // block per iteration with byte swaps.
  std::uint64_t hi = 0, lo = 0;
  for (int i = 0; i < 8; ++i) {
    hi = (hi << 8) | icb[i];
    lo = (lo << 8) | icb[8 + i];
  }
  // Memory layout: icb[0..7] is the big-endian high half, so the low
  // qword of the vector holds bswap(hi).
  auto counter_block = [&hi, &lo]() {
    return _mm_set_epi64x(
        static_cast<long long>(__builtin_bswap64(lo)),
        static_cast<long long>(__builtin_bswap64(hi)));
  };
  auto bump = [&hi, &lo]() {
    if (++lo == 0) ++hi;
  };

  std::size_t off = 0;
  // Four blocks in flight to cover the aesenc latency chain.
  while (off + 64 <= len) {
    __m128i b0 = counter_block(); bump();
    __m128i b1 = counter_block(); bump();
    __m128i b2 = counter_block(); bump();
    __m128i b3 = counter_block(); bump();
    b0 = _mm_xor_si128(b0, rk[0]);
    b1 = _mm_xor_si128(b1, rk[0]);
    b2 = _mm_xor_si128(b2, rk[0]);
    b3 = _mm_xor_si128(b3, rk[0]);
    for (int round = 1; round < 10; ++round) {
      b0 = _mm_aesenc_si128(b0, rk[round]);
      b1 = _mm_aesenc_si128(b1, rk[round]);
      b2 = _mm_aesenc_si128(b2, rk[round]);
      b3 = _mm_aesenc_si128(b3, rk[round]);
    }
    b0 = _mm_aesenclast_si128(b0, rk[10]);
    b1 = _mm_aesenclast_si128(b1, rk[10]);
    b2 = _mm_aesenclast_si128(b2, rk[10]);
    b3 = _mm_aesenclast_si128(b3, rk[10]);
    const __m128i* src = reinterpret_cast<const __m128i*>(in + off);
    __m128i* dst = reinterpret_cast<__m128i*>(out + off);
    _mm_storeu_si128(dst + 0, _mm_xor_si128(_mm_loadu_si128(src + 0), b0));
    _mm_storeu_si128(dst + 1, _mm_xor_si128(_mm_loadu_si128(src + 1), b1));
    _mm_storeu_si128(dst + 2, _mm_xor_si128(_mm_loadu_si128(src + 2), b2));
    _mm_storeu_si128(dst + 3, _mm_xor_si128(_mm_loadu_si128(src + 3), b3));
    off += 64;
  }
  while (off < len) {
    const __m128i ks = encrypt_one(rk, counter_block());
    bump();
    alignas(16) std::uint8_t ks_bytes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(ks_bytes), ks);
    const std::size_t n = len - off < 16 ? len - off : 16;
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks_bytes[i]);
    }
    off += n;
  }
}

#else  // !SHIELD5G_HAVE_AESNI

bool aesni_compiled() noexcept { return false; }

void aesni_encrypt_blocks(const std::uint8_t*, const std::uint8_t*,
                          std::uint8_t*, std::size_t) {}
void aesni_ctr_xor(const std::uint8_t*, const std::uint8_t*,
                   const std::uint8_t*, std::uint8_t*, std::size_t) {}

#endif

}  // namespace shield5g::crypto::detail
