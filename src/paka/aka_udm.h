// eUDM P-AKA module (paper Table I, Fig. 5).
//
// Executes the most sensitive functions of the 5G-AKA home environment:
// MILENAGE f1 / f2345, K_AUSF derivation and AUTN assembly. The
// subscriber long-term key K never crosses the module boundary: it is
// provisioned at deployment — sealed to the enclave measurement under
// SGX isolation (paper §VI, KI 27) — which is why Table I's enclave
// inputs are only OPc, RAND, SQN and AMFid.
#pragma once

#include <map>

#include "nf/types.h"
#include "paka/deployment.h"
#include "sgx/sealing.h"

namespace shield5g::paka {

class EudmAkaService final : public PakaService {
 public:
  EudmAkaService(sgx::Machine& machine, net::Bus& bus, PakaOptions options,
                 const std::string& name = "eudm-aka");

  /// Container-mode provisioning: plain key table. The key is tainted
  /// on arrival and stays tainted in the table.
  void provision_key(const nf::Supi& supi, SecretBytes k);

  /// SGX-mode provisioning: a blob sealed to this module's measurement.
  /// Returns false when unsealing fails (wrong enclave or tampering).
  /// Re-exposing the unsealed table is enclave-grade declassification
  /// (DeclassifyReason::kUnseal): it only succeeds against the booted
  /// enclave's context.
  bool provision_sealed(const sgx::SealedBlob& blob);

  /// Serializes a key table for sealing by the orchestrator. Lowering
  /// each K to wire bytes is provisioning-grade declassification,
  /// audited against the orchestrator's context (host-grade when null).
  static Bytes serialize_key_table(const std::map<nf::Supi, SecretBytes>& keys,
                                   const sgx::EnclaveContext* ctx = nullptr);

  std::size_t key_count() const noexcept { return keys_.size(); }

 protected:
  void register_routes() override;
  std::uint64_t request_alloc_pages() const override { return 2; }
  std::uint64_t app_extra_bytes() const override { return 2'600'000; }

 private:
  std::map<nf::Supi, SecretBytes> keys_;
};

}  // namespace shield5g::paka
