// Trusted-file sets.
//
// Gramine only lets an enclave read files whose hashes are pinned in the
// manifest. GSC, "to achieve generality", appends the majority of the
// container image's root directory to that list (paper §V-B1), which is
// one of the reasons enclave load takes close to a minute. This module
// generates synthetic file sets with realistic counts and sizes for the
// base runtime, an Ubuntu-like image root, and the P-AKA application
// layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace shield5g::libos {

struct TrustedFile {
  std::string path;
  std::uint64_t size_bytes = 0;
  /// Loaded during Gramine/glibc/application startup (and therefore
  /// hashed and OCALL-opened at enclave load time); the rest are only
  /// verified if first touched later.
  bool boot_time = false;
};

/// Gramine runtime + glibc + loader (~60 files, a few tens of MB).
std::vector<TrustedFile> gramine_runtime_files();

/// Root filesystem of a minimal Ubuntu-like container image as GSC
/// appends it (a couple thousand files; /boot, /dev, /etc/mtab, /proc,
/// /sys excluded, as the paper notes).
std::vector<TrustedFile> gsc_rootfs_files(std::uint32_t seed);

/// The application layer for one P-AKA module: the service binary,
/// OpenSSL/Pistache-like shared objects, certificates and config.
/// `app_extra_bytes` differentiates the three modules' image sizes.
std::vector<TrustedFile> paka_app_files(const std::string& module_name,
                                        std::uint64_t app_extra_bytes);

/// Digest of a whole file set (stands in for per-file SHA-256 hashes in
/// the manifest; any file change changes the measurement).
Bytes file_set_digest(const std::vector<TrustedFile>& files);

std::uint64_t total_bytes(const std::vector<TrustedFile>& files);
std::uint64_t boot_time_count(const std::vector<TrustedFile>& files);

}  // namespace shield5g::libos
