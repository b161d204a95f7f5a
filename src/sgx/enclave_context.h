// Declassification context: evidence of *where* secret material is
// being exposed (paper §IV / Table V).
//
// Every `SecretBytes::declassify` call names the deployment that is
// about to see plaintext key material. A context is either
// container-backed (plain Docker — the paper's non-SGX baseline, whose
// exposed keys are exactly the Table V leak surface) or enclave-backed
// (a Gramine-SGX P-AKA module). Unsealing-grade declassification —
// re-exposing a long-term subscriber key K after it was provisioned
// sealed (KI 27) — is only legal against an enclave-backed context; the
// gate in common/secret.cpp enforces that and keeps audit counters.
//
// This header is intentionally self-contained (no other sgx/ includes)
// so the bottom-layer secret-taint code in src/common/ can reason about
// a context without linking the SGX machine model.
#pragma once

#include <string>
#include <utility>

namespace shield5g::sgx {

class Enclave;

class EnclaveContext {
 public:
  /// Container (or monolithic in-VNF) deployment: nothing shields the
  /// exposed bytes. Host-grade declassification only.
  static EnclaveContext container(std::string module) {
    return EnclaveContext(std::move(module), nullptr);
  }

  /// Enclave-backed deployment. `enclave` must outlive the context; it
  /// is the module's booted enclave instance.
  static EnclaveContext enclave_backed(std::string module,
                                       const Enclave* enclave) {
    return EnclaveContext(std::move(module), enclave);
  }

  bool enclave_backed() const noexcept { return enclave_ != nullptr; }
  const std::string& module() const noexcept { return module_; }

 private:
  EnclaveContext(std::string module, const Enclave* enclave)
      : module_(std::move(module)), enclave_(enclave) {}

  std::string module_;
  const Enclave* enclave_ = nullptr;
};

}  // namespace shield5g::sgx
