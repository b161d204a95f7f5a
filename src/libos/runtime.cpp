#include "libos/runtime.h"

#include <stdexcept>

#include "common/log.h"

namespace shield5g::libos {

GramineRuntime::GramineRuntime(sgx::Machine& machine, GscImage image,
                               LibosCosts costs)
    : machine_(machine), image_(std::move(image)), libos_costs_(costs) {
  image_.manifest.validate();
}

GramineRuntime::~GramineRuntime() {
  if (enclave_ != nullptr) {
    machine_.destroy_enclave(*enclave_);
    enclave_ = nullptr;
  }
}

sgx::Enclave& GramineRuntime::enclave() {
  if (enclave_ == nullptr) {
    throw std::logic_error("GramineRuntime: enclave not created (boot first)");
  }
  return *enclave_;
}

const sgx::TransitionCounters& GramineRuntime::counters() const {
  if (enclave_ == nullptr) {
    throw std::logic_error("GramineRuntime: no enclave");
  }
  return enclave_->counters();
}

void GramineRuntime::load_trusted_file(const TrustedFile& file) {
  // pal-sgx opens and stats the file in the untrusted host, maps it,
  // then the in-enclave shielding code hashes the contents and compares
  // against the manifest before letting the application see a byte.
  syscall(Sys::kOpen);
  syscall(Sys::kStat);
  syscall(Sys::kMmap);
  const std::uint64_t chunks =
      (file.size_bytes + libos_costs_.file_chunk_bytes - 1) /
      libos_costs_.file_chunk_bytes;
  for (std::uint64_t i = 0; i < chunks; ++i) {
    syscall(Sys::kRead,
            std::min(libos_costs_.file_chunk_bytes,
                     file.size_bytes - i * libos_costs_.file_chunk_bytes));
  }
  // In-enclave verification hash over the file contents.
  enclave_->execute(static_cast<sim::Nanos>(
      static_cast<double>(file.size_bytes) /
      machine_.costs().file_hash_bytes_per_ns));
  syscall(Sys::kClose);
}

sim::Nanos GramineRuntime::boot() {
  if (booted_) throw std::logic_error("GramineRuntime: double boot");
  const sim::Nanos start = machine_.clock().now();
  const Manifest& m = image_.manifest;

  // ECREATE + measurement of manifest and signer identity. The file-set
  // digest feeds both the manifest measurement and the page contents;
  // it is computed here from the manifest being loaded, never cached
  // beside it, so the measurement always covers the files loaded.
  enclave_ = &machine_.create_enclave(sgx::EnclaveConfig{
      image_.name, m.enclave_size, m.max_threads, m.debug});
  const Bytes files_digest = file_set_digest(m.trusted_files);
  enclave_->extend_measurement(m.serialize(files_digest));
  enclave_->extend_measurement(image_.signer_id);

  // EADD + EEXTEND every enclave page (SGX1-style full commit).
  enclave_->add_pages(m.enclave_size, files_digest);
  enclave_->init();

  // The whole Gramine process runs under a single long-lived ECALL.
  enclave_->ecall_enter_resident();

  // Gramine + glibc + application startup: verify and map every
  // boot-time trusted file ("several hundred OCALLs", paper §V-B1).
  for (const auto& file : m.trusted_files) {
    if (file.boot_time) load_trusted_file(file);
  }

  // Loader relocation/probing OCALLs not tied to one file.
  for (std::uint32_t i = 0; i < libos_costs_.boot_misc_ocalls; ++i) {
    syscall(i % 3 == 0 ? Sys::kStat : (i % 3 == 1 ? Sys::kFutex : Sys::kRead),
            i % 3 == 2 ? 256 : 0);
  }

  // Three Gramine helper threads: IPC, async events, pipe-TLS
  // (paper §V-B2), each entering the enclave via its own ECALL and
  // staying resident. Pipe creation per helper plus a TLS handshake on
  // the IPC pipe.
  for (int i = 0; i < 3; ++i) {
    syscall(Sys::kClone);
    enclave_->ecall_enter_resident();
    syscall(Sys::kPipe);
  }
  compute(35 * sim::kMicrosecond);  // in-enclave pipe TLS handshake

  // Preheat: pre-fault all heap pages so steady-state requests do not
  // take EPC faults (paper §IV-C). Page-fault service time varies a
  // little run to run (host scheduling, cache state), giving Fig. 7 its
  // spread.
  if (m.preheat_enclave) {
    const std::uint64_t heap_pages =
        m.enclave_size / machine_.costs().page_size;
    const double jitter = machine_.rng().lognormal(1.0, 0.006);
    machine_.clock().advance(static_cast<sim::Nanos>(
        static_cast<double>(heap_pages *
                            machine_.costs().preheat_fault_per_page) *
        jitter));
  }

  booted_ = true;
  const sim::Nanos duration = machine_.clock().now() - start;
  S5G_LOG(LogLevel::kInfo, "libos")
      << image_.name << " booted in " << sim::to_s(duration) << " s";
  return duration;
}

void GramineRuntime::syscall(Sys sys, std::uint64_t bytes) {
  if (enclave_ == nullptr) {
    throw std::logic_error("GramineRuntime: syscall before boot");
  }
  const sim::Nanos host = syscall_host_ns(sys, bytes);
  const auto copy = static_cast<sim::Nanos>(
      libos_costs_.copy_per_byte_ns * static_cast<double>(bytes));
  if (image_.manifest.exitless) {
    // Switchless: an untrusted helper thread services the call; no
    // enclave transition, only synchronisation and the copy.
    machine_.clock().advance(host + copy + libos_costs_.exitless_sync_ns);
  } else {
    enclave_->ocall(host + copy + libos_costs_.ocall_marshalling_ns);
  }
}

void GramineRuntime::compute(sim::Nanos ns) { enclave().execute(ns); }

void GramineRuntime::alloc_pages(std::uint64_t pages) {
  enclave().alloc_pages(pages);
}

void GramineRuntime::touch_cold_path(std::uint64_t pages,
                                     std::uint32_t lazy_ocalls) {
  enclave().demand_fault(pages);
  for (std::uint32_t i = 0; i < lazy_ocalls; ++i) {
    syscall(i % 4 == 0 ? Sys::kOpen
                       : (i % 4 == 1 ? Sys::kMmap
                                     : (i % 4 == 2 ? Sys::kRead : Sys::kClose)),
            i % 4 == 2 ? 4096 : 0);
  }
}

void GramineRuntime::spawn_thread() {
  if (app_threads_ + 4 >= image_.manifest.max_threads) {
    throw std::runtime_error(
        "GramineRuntime: TCS exhausted (sgx.max_threads too small)");
  }
  syscall(Sys::kClone);
  enclave().ecall_enter_resident();
  ++app_threads_;
}

void GramineRuntime::page_swap(std::uint64_t pages) {
  enclave().page_swap(pages);
}

void GramineRuntime::shutdown() {
  if (enclave_ != nullptr) {
    machine_.destroy_enclave(*enclave_);
    enclave_ = nullptr;
    booted_ = false;
  }
}

}  // namespace shield5g::libos
