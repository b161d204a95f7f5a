#include "crypto/hmac_sha256.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "common/secret.h"
#include "crypto/sha256.h"

namespace shield5g::crypto {

namespace {

// Core with the message supplied as up to two parts; writes the full
// 32-byte MAC to `out` without allocating. Pads live on the stack and
// are wiped before returning.
void hmac_core_into(ByteView key, ByteView part1, const ByteView* part2,
                    std::uint8_t* out) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlock> k0{};
  if (key.size() > kBlock) {
    const Bytes digest = Sha256::digest(key);
    std::memcpy(k0.data(), digest.data(), digest.size());
  } else if (!key.empty()) {  // empty ByteView may carry a null pointer
    std::memcpy(k0.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    pad[i] = static_cast<std::uint8_t>(k0[i] ^ 0x36);
  }
  Sha256 inner;
  inner.update(pad).update(part1);
  if (part2 != nullptr) inner.update(*part2);
  const auto inner_digest = inner.finalize();

  for (std::size_t i = 0; i < kBlock; ++i) {
    pad[i] = static_cast<std::uint8_t>(k0[i] ^ 0x5c);
  }
  Sha256 outer;
  outer.update(pad).update(ByteView(inner_digest));
  const auto mac = outer.finalize();
  std::memcpy(out, mac.data(), mac.size());

  secure_zero(k0.data(), k0.size());
  secure_zero(pad.data(), pad.size());
}

Bytes hmac_core(ByteView key, ByteView data) {
  Bytes mac(Sha256::kDigestSize);
  hmac_core_into(key, data, nullptr, mac.data());
  return mac;
}

}  // namespace

Bytes hmac_sha256(ByteView key, ByteView data) {
  return hmac_core(key, data);
}

Bytes hmac_sha256_trunc(ByteView key, ByteView data, std::size_t n) {
  if (n > Sha256::kDigestSize) {
    throw std::invalid_argument("hmac_sha256_trunc: n > 32");
  }
  Bytes mac = hmac_core(key, data);
  mac.resize(n);
  return mac;
}

void hmac_sha256_trunc_into(ByteView key, ByteView part1, ByteView part2,
                            std::uint8_t* out, std::size_t n) {
  if (n > Sha256::kDigestSize) {
    throw std::invalid_argument("hmac_sha256_trunc_into: n > 32");
  }
  std::array<std::uint8_t, Sha256::kDigestSize> mac;
  hmac_core_into(key, part1, &part2, mac.data());
  std::memcpy(out, mac.data(), n);
  secure_zero(mac.data(), mac.size());
}

}  // namespace shield5g::crypto
