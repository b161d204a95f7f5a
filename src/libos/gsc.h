// Gramine Shielded Containers (GSC) analogue (paper §IV-C).
//
// `gsc build` transforms a regular container image into a graminized one:
// it merges the Gramine runtime into the image, generates the manifest
// (appending most of the root filesystem to the trusted-file list) and
// `gsc sign-image` signs it with a user-provided key. The model keeps
// what the enclave consumes of that step: the signer identity (MRSIGNER
// analogue), folded with the manifest into the enclave measurement at
// load. Nothing in the modelled flow checks an image signature, so none
// is computed.
#pragma once

#include <string>

#include "common/bytes.h"
#include "libos/manifest.h"

namespace shield5g::libos {

struct GscImage {
  std::string name;
  Manifest manifest;
  Bytes signer_id;   // MRSIGNER analogue: SHA-256 of the signer key
};

struct GscBuildOptions {
  std::uint64_t enclave_size = 512ULL << 20;
  std::uint32_t max_threads = 4;
  bool preheat_enclave = true;   // paper: sgx.preheat_enclave=true
  bool debug = true;             // paper builds with debug for stats
  bool enable_stats = true;      // paper: manifest stats option
  bool exitless = false;
  /// Differentiates the three module images' application layer sizes.
  std::uint64_t app_extra_bytes = 0;
  /// Seed for the synthetic root filesystem layer.
  std::uint32_t rootfs_seed = 0;
};

/// Builds a graminized image for the named application, signed by
/// `signer_key` (recorded as its signer_id).
GscImage gsc_build(const std::string& app_name, const GscBuildOptions& opts,
                   ByteView signer_key);

}  // namespace shield5g::libos
