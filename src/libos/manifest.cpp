#include "libos/manifest.h"

#include <stdexcept>

namespace shield5g::libos {

Bytes Manifest::serialize() const {
  Bytes out = to_bytes("manifest-v1\n" + entrypoint + "\n");
  const Bytes size = be_bytes(enclave_size, 8);
  out.insert(out.end(), size.begin(), size.end());
  out.push_back(static_cast<std::uint8_t>(max_threads));
  out.push_back(preheat_enclave ? 1 : 0);
  out.push_back(debug ? 1 : 0);
  out.push_back(enable_stats ? 1 : 0);
  out.push_back(exitless ? 1 : 0);
  const Bytes files = file_set_digest(trusted_files);
  out.insert(out.end(), files.begin(), files.end());
  return out;
}

void Manifest::validate() const {
  if (entrypoint.empty()) {
    throw std::invalid_argument("Manifest: missing loader.entrypoint");
  }
  // Gramine needs 3 helper threads (IPC, async events, pipe-TLS) plus
  // at least one application thread (paper §V-B2).
  if (max_threads < 4) {
    throw std::invalid_argument(
        "Manifest: sgx.max_threads < 4 cannot run the P-AKA servers "
        "consistently (3 Gramine helper threads + 1 worker required)");
  }
  if (enclave_size < (512ULL << 20)) {
    throw std::invalid_argument(
        "Manifest: sgx.enclave_size below 512M is insufficient for the "
        "P-AKA working set");
  }
}

}  // namespace shield5g::libos
