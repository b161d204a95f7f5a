// Network-slice orchestrator: composes the full testbed of the paper —
// core VNFs, P-AKA modules under the selected isolation, gNB and
// subscribers — enforcing the deployment policies of §IV-B (P-AKA
// modules co-located with their parent VNFs, attested before admission,
// key material delivered sealed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/eph_pool.h"
#include "net/bus.h"
#include "nf/amf.h"
#include "nf/ausf.h"
#include "nf/nrf.h"
#include "nf/smf.h"
#include "nf/udm.h"
#include "nf/udr.h"
#include "nf/upf.h"
#include "paka/aka_amf.h"
#include "paka/aka_ausf.h"
#include "paka/aka_udm.h"
#include "ran/gnb.h"
#include "ran/gnbsim.h"
#include "sgx/machine.h"
#include "sim/clock.h"

namespace shield5g::slice {

enum class IsolationMode {
  kMonolithic,  // AKA functions inside the VNFs (legacy OAI layout)
  kContainer,   // external P-AKA modules in plain containers
  kSgx,         // external P-AKA modules in SGX enclaves (the paper)
};

const char* isolation_mode_name(IsolationMode mode) noexcept;

struct SliceConfig {
  IsolationMode mode = IsolationMode::kSgx;
  nf::Plmn plmn;                       // default 001/01 (test PLMN)
  std::uint32_t subscriber_count = 8;
  paka::PakaOptions paka;              // EPC size / threads / preheat ...
  /// Horizontal scaling of the heaviest module (paper §V-B7): the UDM
  /// round-robins AV generation across this many eUDM replicas.
  std::uint32_t eudm_replicas = 1;
  /// TLS session resumption on the SBI bus: after the first contact
  /// between a (client, server) pair every handshake is ticket-based —
  /// zero scalar mults. Off by default: the legacy wire path stays the
  /// bit-identity oracle.
  bool tls_resumption = false;
  /// Ephemeral X25519 precompute pool shared by full TLS handshakes and
  /// SUCI concealment. Deterministically seeded from `seed`, so sweeps
  /// stay reproducible; off by default for the same oracle reason.
  bool eph_pool = false;
  std::uint64_t seed = 0x51C3ULL;
  /// The *global* subscriber ids the slice provisions; empty (the
  /// default) means ids [0, subscriber_count). Local index i maps to
  /// global id population[i] (the serving plane, load/serving.h, hands
  /// each shard's slice its own ids). Credentials derive from a per-id
  /// Rng (seed ^ 0xc4ed, mixed with the id), so a subscriber's
  /// K/OPc/SQN depend only on (seed domain, id) — never on which
  /// shard's slice provisions it or in what order. No per-subscriber
  /// record is kept: `subscriber(i)` re-derives on demand and the UDR's
  /// columnar store is the only resident copy.
  std::vector<std::uint32_t> population;
};

/// Everything a bench needs to know about slice creation.
struct SliceCreation {
  sim::Nanos total = 0;
  sim::Nanos eudm_load = 0;
  sim::Nanos eausf_load = 0;
  sim::Nanos eamf_load = 0;
  bool attestation_ok = false;  // SGX mode only
  bool sealed_provisioning_ok = false;
};

class Slice {
 public:
  /// Request workers per core VNF.
  static constexpr std::uint32_t kVnfWorkers = 4;
  /// Bounded FIFO depth in front of each core VNF's request workers
  /// (UDR/UDM/AUSF/AMF/SMF/NRF). P-AKA module concurrency is configured
  /// separately via SliceConfig::paka (TCS-derived under SGX).
  static constexpr std::uint32_t kVnfQueueCapacity = 256;

  explicit Slice(SliceConfig config);
  ~Slice();

  Slice(const Slice&) = delete;
  Slice& operator=(const Slice&) = delete;

  /// Deploys the whole slice; in SGX mode this includes GSC builds,
  /// enclave loads (the Fig. 7 metric), remote attestation of all three
  /// modules and sealed delivery of the eUDM key table.
  SliceCreation create();

  bool created() const noexcept { return created_; }
  const SliceConfig& config() const noexcept { return config_; }

  // ---- Component access ------------------------------------------------
  sim::VirtualClock& clock() noexcept { return clock_; }
  sgx::Machine& machine() noexcept { return machine_; }
  net::Bus& bus() noexcept { return bus_; }
  /// Ephemeral-key pool (nullptr unless SliceConfig::eph_pool).
  crypto::EphemeralKeyPool* eph_pool() noexcept { return eph_pool_.get(); }
  nf::Udr& udr() noexcept { return *udr_; }
  nf::Udm& udm() noexcept { return *udm_; }
  nf::Ausf& ausf() noexcept { return *ausf_; }
  nf::Amf& amf() noexcept { return *amf_; }
  nf::Smf& smf() noexcept { return *smf_; }
  nf::Nrf& nrf() noexcept { return *nrf_; }
  nf::Upf& upf() noexcept { return *upf_; }
  ran::Gnb& gnb() noexcept { return *gnb_; }
  ran::GnbSim& gnbsim() noexcept { return *gnbsim_; }
  /// First (or only) eUDM replica.
  paka::EudmAkaService* eudm() noexcept {
    return eudm_replicas_.empty() ? nullptr : eudm_replicas_.front().get();
  }
  paka::EausfAkaService* eausf() noexcept { return eausf_.get(); }
  paka::EamfAkaService* eamf() noexcept { return eamf_.get(); }
  const std::vector<std::unique_ptr<paka::EudmAkaService>>& eudm_replicas()
      const noexcept {
    return eudm_replicas_;
  }

  /// USIM configuration for subscriber `i` (matches the UDR record).
  ran::UsimConfig subscriber(std::uint32_t i) const;

  /// Provisioned subscribers addressable by subscriber(i): the
  /// population size (subscriber_count when the population is empty).
  std::uint32_t subscriber_capacity() const noexcept {
    return static_cast<std::uint32_t>(config_.population.size());
  }

  /// Convenience: full registration (+ PDU session) of subscriber `i`.
  ran::RegistrationResult register_subscriber(std::uint32_t i,
                                              bool with_pdu = true);

 private:
  void provision_subscribers();
  bool attest_modules();
  bool provision_sealed_keys();

  SliceConfig config_;
  sim::VirtualClock clock_;
  sgx::Machine machine_;
  net::Bus bus_;
  Rng cred_rng_;  // the HN key pair and the seal IVs
  crypto::X25519KeyPair hn_key_;
  std::unique_ptr<crypto::EphemeralKeyPool> eph_pool_;

  std::unique_ptr<nf::Upf> upf_;
  std::unique_ptr<nf::Udr> udr_;
  std::unique_ptr<nf::Udm> udm_;
  std::unique_ptr<nf::Ausf> ausf_;
  std::unique_ptr<nf::Amf> amf_;
  std::unique_ptr<nf::Smf> smf_;
  std::unique_ptr<nf::Nrf> nrf_;
  std::vector<std::unique_ptr<paka::EudmAkaService>> eudm_replicas_;
  std::unique_ptr<paka::EausfAkaService> eausf_;
  std::unique_ptr<paka::EamfAkaService> eamf_;
  std::unique_ptr<ran::Gnb> gnb_;
  std::unique_ptr<ran::GnbSim> gnbsim_;

  bool created_ = false;
};

}  // namespace shield5g::slice
