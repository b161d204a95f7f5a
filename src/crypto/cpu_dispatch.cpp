#include "crypto/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace shield5g::crypto {

namespace {

// 0 = unset, 1 = scalar, 2 = accelerated. A single relaxed atomic keeps
// the per-call dispatch branch cheap and safe under monte_carlo's host
// threads.
std::atomic<int> g_forced{0};

struct CpuFeatures {
  bool aesni = false;
  bool shani = false;
};

CpuFeatures detect_features() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    const bool sse41 = (ecx & (1u << 19)) != 0;
    f.aesni = sse41 && (ecx & (1u << 25)) != 0;
    // The SHA-NI kernel also uses SSSE3 shuffles; leaf 1 ecx bit 9.
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      f.shani = sse41 && ssse3 && (ebx & (1u << 29)) != 0;
    }
  }
#endif
  return f;
}

const CpuFeatures& features() noexcept {
  static const CpuFeatures f = detect_features();
  return f;
}

CryptoBackend resolve_default() noexcept {
  const char* env = std::getenv("SHIELD5G_CRYPTO_BACKEND");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return CryptoBackend::kScalar;
    if (std::strcmp(env, "accel") == 0) return CryptoBackend::kAccelerated;
    // "auto" and anything unrecognized fall through to detection.
  }
  // The accelerated backend is worthwhile even without AES/SHA CPU bits:
  // it also selects the fixed-point X25519 path, which is portable.
  return CryptoBackend::kAccelerated;
}

}  // namespace

CryptoBackend active_backend() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced == 1) return CryptoBackend::kScalar;
  if (forced == 2) return CryptoBackend::kAccelerated;
  // One-time init is a C++11 magic static (as is features() above):
  // shard-pool workers racing into the first call serialize on the
  // guard and every later call is a plain load — TSan-clean, audited by
  // the MonteCarlo.* thread workloads. Tests that force_backend() must
  // do so before spawning workers; the forced flag itself is atomic.
  static const CryptoBackend resolved = resolve_default();
  return resolved;
}

void force_backend(CryptoBackend backend) noexcept {
  g_forced.store(backend == CryptoBackend::kScalar ? 1 : 2,
                 std::memory_order_relaxed);
}

void clear_forced_backend() noexcept {
  g_forced.store(0, std::memory_order_relaxed);
}

bool cpu_has_aesni() noexcept { return features().aesni; }
bool cpu_has_shani() noexcept { return features().shani; }

const char* backend_name(CryptoBackend backend) noexcept {
  return backend == CryptoBackend::kScalar ? "scalar" : "accel";
}

}  // namespace shield5g::crypto
