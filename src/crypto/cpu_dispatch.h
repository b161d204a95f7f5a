// Runtime selection between the scalar reference kernels and the
// hardware-accelerated ones (AES-NI, SHA extensions).
//
// The selection is wall-clock-only: both backends execute the same
// primitive operations and increment the same op counters, so every
// virtual-time result is bit-identical regardless of which kernel ran.
// Detection happens once (CPUID), can be overridden by the environment
// variable SHIELD5G_CRYPTO_BACKEND=scalar|accel|auto, and can be forced
// at runtime by tests so both paths run in CI on any host.
#pragma once

namespace shield5g::crypto {

enum class CryptoBackend {
  kScalar,       // portable reference implementations
  kAccelerated,  // AES-NI / SHA-NI kernels plus the fixed-point X25519
                 // path; each kernel still falls back to scalar when the
                 // host lacks its specific CPU feature
};

/// The backend in effect for this call. Resolved once from CPUID and
/// SHIELD5G_CRYPTO_BACKEND, unless a force is active.
CryptoBackend active_backend() noexcept;

/// Test hook: pin the backend regardless of CPU features or env.
void force_backend(CryptoBackend backend) noexcept;

/// Test hook: drop a force_backend() pin and return to auto selection.
void clear_forced_backend() noexcept;

/// Raw CPUID feature bits (false on non-x86 builds).
bool cpu_has_aesni() noexcept;
bool cpu_has_shani() noexcept;

/// Human-readable name for reports ("scalar" / "accel").
const char* backend_name(CryptoBackend backend) noexcept;

}  // namespace shield5g::crypto
