// Gramine-SGX runtime model: enclave boot, trusted-file verification,
// helper threads, preheat, and the syscall-interposition layer that
// turns every application syscall into an OCALL round trip (or into a
// switchless call when the exitless feature is enabled).
#pragma once

#include <cstdint>
#include <memory>

#include "common/syscall.h"
#include "libos/gsc.h"
#include "sgx/machine.h"
#include "sim/clock.h"

namespace shield5g::libos {

/// Gramine software-layer cost constants (separate from the hardware
/// costs in sgx::CostModel).
struct LibosCosts {
  /// Untrusted-runtime marshalling + thread wakeup per OCALL, on top of
  /// the raw EEXIT/EENTER cycles and host syscall service time. This is
  /// the dominant per-request SGX cost for the network-bound P-AKA
  /// servers (paper §V-B3).
  sim::Nanos ocall_marshalling_ns = 3'200;
  /// Shielding copy of buffer bytes across the enclave boundary.
  double copy_per_byte_ns = 0.35;
  /// Synchronisation cost per switchless (exitless) call.
  sim::Nanos exitless_sync_ns = 900;
  /// Dynamic-loader / environment-probe OCALLs during boot that are not
  /// attributable to an individual trusted file.
  std::uint32_t boot_misc_ocalls = 180;
  /// Read-chunk size when verifying a trusted file at open.
  std::uint64_t file_chunk_bytes = 128 * 1024;
};

class GramineRuntime {
 public:
  GramineRuntime(sgx::Machine& machine, GscImage image);
  ~GramineRuntime();

  GramineRuntime(const GramineRuntime&) = delete;
  GramineRuntime& operator=(const GramineRuntime&) = delete;

  /// Full enclave load: ECREATE/EADD/EEXTEND/EINIT, Gramine+glibc init
  /// (trusted-file OCALL storm), helper-thread spawn and, if enabled,
  /// heap preheat. Returns the virtual-time duration of the load.
  sim::Nanos boot();

  bool booted() const noexcept { return booted_; }

  /// Application syscall through the interposition layer.
  void syscall(Sys sys, std::uint64_t bytes = 0);

  /// In-enclave computation (charged with the memory-encryption factor).
  void compute(sim::Nanos ns);

  /// Heap allocation churn (EPC page pressure) during a request.
  void alloc_pages(std::uint64_t pages);

  /// Lazy first-touch work: demand faults of cold code/heap pages plus
  /// the OCALLs of on-demand library loading (drives the R_I spike).
  void touch_cold_path(std::uint64_t pages, std::uint32_t lazy_ocalls);

  /// Spawns an application thread (clone OCALL + resident ECALL).
  void spawn_thread();

  /// EPC<->DRAM paging events (oversized-EPC model, Fig. 8).
  void page_swap(std::uint64_t pages);

  const GscImage& image() const noexcept { return image_; }
  sgx::Enclave& enclave();
  const sgx::TransitionCounters& counters() const;

  /// Tears the enclave down (releases EPC).
  void shutdown();

 private:
  void load_trusted_file(const TrustedFile& file);

  sgx::Machine& machine_;
  GscImage image_;
  LibosCosts libos_costs_;
  sgx::Enclave* enclave_ = nullptr;  // owned by the machine
  bool booted_ = false;
  std::uint32_t app_threads_ = 0;
};

}  // namespace shield5g::libos
