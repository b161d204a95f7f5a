// Gramine manifest model (paper §IV-C).
//
// Mirrors the manifest options the paper sets when building the P-AKA
// images with GSC: sgx.max_threads, enclave size, preheat, debug/stats —
// plus the trusted-file list GSC generates by appending most of the
// image's root directory. The exitless option models Gramine's
// switchless-OCALL feature the paper discusses as future work (§V-B7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "libos/trusted_files.h"

namespace shield5g::libos {

struct Manifest {
  std::string entrypoint;                       // loader.entrypoint
  std::uint64_t enclave_size = 512ULL << 20;    // sgx.enclave_size
  std::uint32_t max_threads = 4;                // sgx.max_threads
  bool preheat_enclave = true;                  // sgx.preheat_enclave
  bool debug = false;                           // loader.log_level
  bool enable_stats = false;                    // sgx.enable_stats
  bool exitless = false;                        // sgx.rpc_thread_num > 0
  std::vector<TrustedFile> trusted_files;       // sgx.trusted_files

  /// Canonical serialization folded into the enclave measurement (any
  /// manifest change changes MRENCLAVE, as with real Gramine).
  Bytes serialize() const;

  /// Sanity checks mirroring Gramine's loader: the paper observed that
  /// fewer than 4 threads or less than 512 MB EPC makes the P-AKA
  /// modules "behave inconsistently"; validate() enforces the same
  /// floor (3 helper threads + 1 worker).
  void validate() const;
};

}  // namespace shield5g::libos
