#include "libos/trusted_files.h"

#include "common/rng.h"
#include "crypto/sha256.h"

namespace shield5g::libos {

std::vector<TrustedFile> gramine_runtime_files() {
  std::vector<TrustedFile> files;
  files.push_back({"/gramine/sgx/loader", 2'100'000, true});
  files.push_back({"/gramine/sgx/libpal.so", 1'650'000, true});
  files.push_back({"/gramine/runtime/glibc/ld-linux-x86-64.so.2", 210'000,
                   true});
  files.push_back({"/gramine/runtime/glibc/libc.so.6", 2'030'000, true});
  files.push_back({"/gramine/runtime/glibc/libm.so.6", 940'000, true});
  files.push_back({"/gramine/runtime/glibc/libpthread.so.0", 155'000, true});
  files.push_back({"/gramine/runtime/glibc/libdl.so.2", 20'000, true});
  files.push_back({"/gramine/runtime/glibc/librt.so.1", 40'000, true});
  files.push_back({"/gramine/runtime/glibc/libresolv.so.2", 100'000, true});
  files.push_back({"/gramine/runtime/glibc/libnss_dns.so.2", 30'000, true});
  // Locale/terminfo/etc. support files read during glibc init.
  for (int i = 0; i < 48; ++i) {
    files.push_back({"/gramine/runtime/aux/file" + std::to_string(i),
                     static_cast<std::uint64_t>(6'000 + 977 * i), true});
  }
  return files;
}

std::vector<TrustedFile> gsc_rootfs_files(std::uint32_t seed) {
  // ~2,300 files, ~210 MB in total: the Ubuntu base layer GSC appends.
  // Deterministic pseudo-random sizes; only a small fraction (shared
  // libraries on the default library path) is touched at boot.
  Rng rng(0x6b5cf11e5ULL + seed);
  std::vector<TrustedFile> files;
  files.reserve(2'300);
  const char* dirs[] = {"/usr/lib", "/usr/share", "/usr/bin", "/lib",
                        "/etc",     "/var/lib",   "/opt"};
  for (int i = 0; i < 2'300; ++i) {
    const char* dir = dirs[i % 7];
    // Log-normal-ish size distribution: many small files, few large.
    const std::uint64_t size =
        1'000 + static_cast<std::uint64_t>(rng.lognormal(28'000, 1.4));
    const bool boot = (i % 7 == 3) && (i / 7 < 9);  // 9 /lib libraries
    files.push_back({std::string(dir) + "/f" + std::to_string(i), size, boot});
  }
  return files;
}

std::vector<TrustedFile> paka_app_files(const std::string& module_name,
                                        std::uint64_t app_extra_bytes) {
  std::vector<TrustedFile> files;
  const std::string base = "/opt/paka/" + module_name;
  files.push_back({base + "/server", 4'800'000 + app_extra_bytes, true});
  files.push_back({base + "/libssl.so.3", 680'000, true});
  files.push_back({base + "/libcrypto.so.3", 4'450'000, true});
  files.push_back({base + "/libpistache.so", 1'900'000, true});
  files.push_back({base + "/certs/server.crt", 2'100, true});
  files.push_back({base + "/certs/server.key", 3'300, true});
  files.push_back({base + "/certs/ca.crt", 2'000, true});
  files.push_back({base + "/config.json", 1'400, true});
  return files;
}

Bytes file_set_digest(const std::vector<TrustedFile>& files) {
  // Views and a stack buffer, no heap copy per file: a GSC image lists
  // ~2,400 files and is hashed at every build and boot.
  crypto::Sha256 hash;
  std::uint8_t size_be[8] = {};
  for (const auto& f : files) {
    hash.update(ByteView(reinterpret_cast<const std::uint8_t*>(f.path.data()),
                         f.path.size()));
    for (int i = 0; i < 8; ++i) {
      size_be[i] = static_cast<std::uint8_t>(f.size_bytes >> (56 - 8 * i));
    }
    hash.update(size_be);
  }
  const auto digest = hash.finalize();
  return Bytes(digest.begin(), digest.end());
}

std::uint64_t total_bytes(const std::vector<TrustedFile>& files) {
  std::uint64_t sum = 0;
  for (const auto& f : files) sum += f.size_bytes;
  return sum;
}

std::uint64_t boot_time_count(const std::vector<TrustedFile>& files) {
  std::uint64_t n = 0;
  for (const auto& f : files) n += f.boot_time ? 1 : 0;
  return n;
}

}  // namespace shield5g::libos
