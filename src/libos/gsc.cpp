#include "libos/gsc.h"

#include "crypto/sha256.h"

namespace shield5g::libos {

GscImage gsc_build(const std::string& app_name, const GscBuildOptions& opts,
                   ByteView signer_key) {
  GscImage image;
  image.name = "gsc-" + app_name;

  Manifest& m = image.manifest;
  m.entrypoint = "/opt/paka/" + app_name + "/server";
  m.enclave_size = opts.enclave_size;
  m.max_threads = opts.max_threads;
  m.preheat_enclave = opts.preheat_enclave;
  m.debug = opts.debug;
  m.enable_stats = opts.enable_stats;
  m.exitless = opts.exitless;

  // GSC merges: Gramine runtime, the image root filesystem (minus the
  // platform-specific directories), and the application layer.
  m.trusted_files = gramine_runtime_files();
  const auto rootfs = gsc_rootfs_files(opts.rootfs_seed);
  m.trusted_files.insert(m.trusted_files.end(), rootfs.begin(), rootfs.end());
  const auto app = paka_app_files(app_name, opts.app_extra_bytes);
  m.trusted_files.insert(m.trusted_files.end(), app.begin(), app.end());

  m.validate();

  image.signer_id = crypto::Sha256::digest(signer_key);
  return image;
}

}  // namespace shield5g::libos
