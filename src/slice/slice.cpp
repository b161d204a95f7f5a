#include "slice/slice.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string_view>

#include "common/log.h"
#include "crypto/sha256.h"
#include "crypto/key_hierarchy.h"
#include "nf/sbi.h"
#include "sgx/attestation.h"
#include "sgx/sealing.h"

namespace shield5g::slice {

const char* isolation_mode_name(IsolationMode mode) noexcept {
  switch (mode) {
    case IsolationMode::kMonolithic: return "monolithic";
    case IsolationMode::kContainer: return "container";
    case IsolationMode::kSgx: return "sgx";
  }
  return "?";
}

Slice::Slice(SliceConfig config)
    : config_(std::move(config)),
      machine_(clock_, config_.sgx_costs, config_.seed ^ 0x5658ULL),
      bus_(clock_, config_.net_costs, config_.seed ^ 0xb05ULL),
      cred_rng_(config_.seed ^ 0xc4edULL) {
  // Resumption must be armed before any attach() below so every server
  // gets a ticket issuer; the pool is seeded from the slice seed so a
  // sweep's digests stay reproducible at any worker count.
  if (config_.tls_resumption) bus_.set_resumption(true);
  if (config_.eph_pool) {
    crypto::EphemeralKeyPool::Config pool_cfg;
    pool_cfg.seed = config_.seed ^ 0xe9aULL;
    eph_pool_ = std::make_unique<crypto::EphemeralKeyPool>(pool_cfg);
    bus_.set_eph_pool(eph_pool_.get());
  }
  hn_key_ = crypto::x25519_keypair(cred_rng_.bytes(32));

  // Monolithic layout: the core VNFs (AKA functions included) share one
  // address space with no isolation boundary, so every VNF-to-VNF hop
  // qualifies for the bus's co-located delivery fast path (DESIGN.md
  // §18). Container and SGX deployments keep the default isolated
  // domain — their boundaries are the paper's subject, and the wire
  // ceremony across them is load-bearing.
  if (config_.mode == IsolationMode::kMonolithic) {
    bus_.set_attach_domain(1);
  }

  const nf::AkaDeployment deployment =
      config_.mode == IsolationMode::kMonolithic
          ? nf::AkaDeployment::kMonolithic
          : nf::AkaDeployment::kExternal;

  upf_ = std::make_unique<nf::Upf>(clock_);
  udr_ = std::make_unique<nf::Udr>(bus_);
  nrf_ = std::make_unique<nf::Nrf>(bus_);
  smf_ = std::make_unique<nf::Smf>(bus_, *upf_);

  nf::UdmConfig udm_cfg;
  udm_cfg.deployment = deployment;
  udm_cfg.hn_key = hn_key_;
  if (config_.eudm_replicas > 1) {
    udm_cfg.eudm_services.clear();
    for (std::uint32_t i = 0; i < config_.eudm_replicas; ++i) {
      udm_cfg.eudm_services.push_back("eudm-aka-" + std::to_string(i));
    }
  }
  udm_ = std::make_unique<nf::Udm>(bus_, udm_cfg);

  nf::AusfConfig ausf_cfg;
  ausf_cfg.deployment = deployment;
  ausf_cfg.allowed_snns.insert(
      crypto::serving_network_name(config_.plmn.mcc, config_.plmn.mnc));
  ausf_ = std::make_unique<nf::Ausf>(bus_, ausf_cfg);

  nf::AmfConfig amf_cfg;
  amf_cfg.deployment = deployment;
  amf_cfg.plmn = config_.plmn;
  amf_ = std::make_unique<nf::Amf>(bus_, amf_cfg);

  if (config_.mode != IsolationMode::kMonolithic) {
    paka::PakaOptions paka = config_.paka;
    paka.isolation = config_.mode == IsolationMode::kSgx
                         ? paka::Isolation::kSgx
                         : paka::Isolation::kContainer;
    if (config_.eudm_replicas > 1) {
      for (std::uint32_t i = 0; i < config_.eudm_replicas; ++i) {
        eudm_replicas_.push_back(std::make_unique<paka::EudmAkaService>(
            machine_, bus_, paka, "eudm-aka-" + std::to_string(i)));
      }
    } else {
      eudm_replicas_.push_back(
          std::make_unique<paka::EudmAkaService>(machine_, bus_, paka));
    }
    eausf_ = std::make_unique<paka::EausfAkaService>(machine_, bus_, paka);
    eamf_ = std::make_unique<paka::EamfAkaService>(machine_, bus_, paka);
  }

  const net::ServiceQueue::Config vnf_queue{config_.vnf_workers,
                                            config_.vnf_queue_capacity};
  for (nf::Vnf* vnf : std::initializer_list<nf::Vnf*>{
           udr_.get(), nrf_.get(), smf_.get(), udm_.get(), ausf_.get(),
           amf_.get()}) {
    vnf->server().queue().configure(vnf_queue);
  }

  gnb_ = std::make_unique<ran::Gnb>(
      clock_, *amf_, ran::CellConfig{config_.plmn, 3.6192, 106, "oai-gnb"},
      ran::RadioCosts{}, ran::NgapCosts{}, config_.seed ^ 0x69bULL);
  gnbsim_ = std::make_unique<ran::GnbSim>(*gnb_);
}

Slice::~Slice() = default;

namespace {

// Rows the population loop derives ahead of the one it inserts. A row's
// index slot is prefetched when the row is derived, so up to this many
// slot misses of a 1M-row index are in flight at once.
constexpr std::size_t kLookAhead = 8;

/// One subscriber's identity and credentials in fixed storage: no heap,
/// and K‖OPc is wiped when the value dies.
struct Credentials {
  Credentials() = default;
  Credentials(const Credentials&) = delete;
  Credentials& operator=(const Credentials&) = delete;
  ~Credentials() { secure_zero(k_opc.data(), k_opc.size()); }

  std::string_view supi() const noexcept {
    return std::string_view(text.data(), length);
  }
  ByteView k() const noexcept { return ByteView(k_opc).first(16); }
  ByteView opc() const noexcept { return ByteView(k_opc).last(16); }

  std::array<char, 24> text{};  // SUPI: mcc‖mnc‖10-digit MSIN
  std::size_t length = 0;
  std::array<std::uint8_t, 32> k_opc{};  // K‖OPc
  std::uint64_t sqn = 0;
};

/// The one subscriber derivation, shared by both provisioning modes.
/// The MSIN is %010u of 100000000u + id: a u32 sum, so it wraps exactly
/// like the printf it replaces, and a u32 never needs an 11th digit.
/// K‖OPc are the next 32 bytes of `rng`; the network SQN starts at
/// 0x100 + 0x40 * id.
void derive(const nf::Plmn& plmn, std::uint32_t id, Rng& rng,
            Credentials& out) {
  const std::size_t prefix = plmn.mcc.size() + plmn.mnc.size();
  if (prefix + 10 > out.text.size()) {
    throw std::invalid_argument("Slice: PLMN id too long for a SUPI");
  }
  char* msin = std::copy(plmn.mcc.begin(), plmn.mcc.end(), out.text.data());
  msin = std::copy(plmn.mnc.begin(), plmn.mnc.end(), msin);
  std::uint32_t digits = 100000000u + id;
  for (int d = 9; d >= 0; --d, digits /= 10) {
    msin[d] = static_cast<char>('0' + digits % 10);
  }
  out.length = prefix + 10;
  rng.fill(out.k_opc);
  out.sqn = 0x100 + 0x40ULL * id;
}

/// Population mode's per-id stream: the credentials depend only on
/// (seed, gid), never on provisioning order — every shard layout
/// derives the same subscriber.
Rng population_rng(std::uint64_t seed, std::uint32_t gid) {
  return Rng(seed ^ 0xc4edULL ^
             (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(gid) + 1)));
}

nf::SubscriberRecord record_of(const Credentials& creds) {
  nf::SubscriberRecord rec;
  rec.supi.value = std::string(creds.supi());
  rec.k = SecretBytes(creds.k());
  rec.opc = SecretBytes(creds.opc());
  rec.sqn = creds.sqn;
  return rec;
}

}  // namespace

nf::SubscriberRecord Slice::derived_record(std::uint32_t gid) const {
  Credentials creds;
  Rng rng = population_rng(config_.seed, gid);
  derive(config_.plmn, gid, rng, creds);
  return record_of(creds);
}

void Slice::provision_subscribers() {
  subscribers_.clear();
  const std::vector<std::uint32_t>& gids = config_.population;
  if (!gids.empty()) {
    // Population mode: the columnar UDR store is the only resident copy
    // — no fat SubscriberRecord vector at 1M subscribers. Each row is
    // derived into a ring slot kLookAhead rows before its insert, and
    // its index slot prefetched then, so consecutive rows' slot misses
    // overlap. Rows still go in population order: row numbers and
    // probe order are those of a plain loop.
    struct Ahead {
      Credentials creds;
      nf::HashedSupi key{std::string_view()};
    };
    nf::SubscriberStore& store = udr_->store();
    store.reserve(gids.size());
    std::array<Ahead, kLookAhead> ring;
    const auto stage = [&](std::size_t i) {
      Ahead& ahead = ring[i % kLookAhead];
      Rng rng = population_rng(config_.seed, gids[i]);
      derive(config_.plmn, gids[i], rng, ahead.creds);
      ahead.key = nf::HashedSupi(ahead.creds.supi());
      store.prefetch(ahead.key);
    };
    for (std::size_t i = 0; i < std::min(kLookAhead, gids.size()); ++i) {
      stage(i);
    }
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const Ahead& row = ring[i % kLookAhead];
      store.provision(row.key, row.creds.k(), row.creds.opc(),
                      row.creds.sqn, nf::kDefaultAmfField);
      if (i + kLookAhead < gids.size()) stage(i + kLookAhead);
    }
    return;
  }
  subscribers_.reserve(config_.subscriber_count);
  Credentials creds;
  for (std::uint32_t i = 0; i < config_.subscriber_count; ++i) {
    derive(config_.plmn, i, cred_rng_, creds);
    subscribers_.push_back(record_of(creds));
    udr_->provision(subscribers_.back());
  }
}

bool Slice::attest_modules() {
  // KI 13: verify each module's RA-TLS quote against the platform
  // attestation service before admitting it into the AKA chain. The
  // quote binds the enclave measurement to the module's pinned TLS key,
  // so both "who is this code" and "who am I about to talk to" are
  // checked in one step.
  const sgx::AttestationVerifier verifier(
      Bytes(machine_.attestation_key().begin(),
            machine_.attestation_key().end()));
  std::vector<paka::PakaService*> modules;
  for (const auto& replica : eudm_replicas_) modules.push_back(replica.get());
  modules.push_back(eausf_.get());
  modules.push_back(eamf_.get());
  for (paka::PakaService* module : modules) {
    const sgx::Quote quote = module->identity_quote();
    const auto identity = bus_.server_identity(module->name());
    if (!identity ||
        !verifier.verify(quote,
                         module->runtime()->enclave().measurement()) ||
        !ct_equal(quote.report_data, crypto::Sha256::digest(*identity))) {
      S5G_LOG(LogLevel::kError, "slice")
          << "attestation failed for " << module->name();
      return false;
    }
  }
  return true;
}

bool Slice::provision_sealed_keys() {
  // KI 27: the subscriber key table reaches each eUDM enclave sealed to
  // its measurement; a plaintext K never appears in any image or on the
  // provisioning path.
  std::map<nf::Supi, SecretBytes> keys;
  for (const auto& rec : subscribers_) keys[rec.supi] = rec.k;
  for (const std::uint32_t gid : config_.population) {
    nf::SubscriberRecord rec = derived_record(gid);
    keys[rec.supi] = std::move(rec.k);
  }
  const Bytes table = paka::EudmAkaService::serialize_key_table(keys);
  for (const auto& replica : eudm_replicas_) {
    const sgx::SealedBlob blob =
        sgx::seal(replica->runtime()->enclave(), table, cred_rng_.bytes(16));
    if (!replica->provision_sealed(blob)) return false;
  }
  return true;
}

SliceCreation Slice::create() {
  if (created_) throw std::logic_error("Slice: already created");
  SliceCreation creation;
  const sim::Nanos start = clock_.now();

  provision_subscribers();

  // NF profile registration with the NRF (mutual discovery).
  struct Reg { const char* id; const char* type; const char* service; };
  for (const Reg& reg :
       {Reg{"udm-1", "UDM", "udm"}, Reg{"ausf-1", "AUSF", "ausf"},
        Reg{"amf-1", "AMF", "amf"}, Reg{"smf-1", "SMF", "smf"},
        Reg{"udr-1", "UDR", "udr"}}) {
    json::Object profile;
    profile["nfType"] = reg.type;
    profile["serviceName"] = reg.service;
    bus_.request("orchestrator", "nrf",
                 nf::json_put("/nnrf-nfm/v1/nf-instances/" +
                                  std::string(reg.id),
                              json::Value(std::move(profile))));
  }

  if (config_.mode != IsolationMode::kMonolithic) {
    for (const auto& replica : eudm_replicas_) {
      creation.eudm_load = replica->deploy();
    }
    creation.eausf_load = eausf_->deploy();
    creation.eamf_load = eamf_->deploy();

    if (config_.mode == IsolationMode::kSgx) {
      creation.attestation_ok = attest_modules();
      creation.sealed_provisioning_ok = provision_sealed_keys();
      if (!creation.attestation_ok || !creation.sealed_provisioning_ok) {
        throw std::runtime_error("Slice: P-AKA admission failed");
      }
    } else {
      for (const auto& replica : eudm_replicas_) {
        for (const auto& rec : subscribers_) {
          replica->provision_key(rec.supi, rec.k);
        }
        for (const std::uint32_t gid : config_.population) {
          nf::SubscriberRecord rec = derived_record(gid);
          replica->provision_key(rec.supi, std::move(rec.k));
        }
      }
      creation.attestation_ok = false;
      creation.sealed_provisioning_ok = false;
    }
  }

  created_ = true;
  creation.total = clock_.now() - start;
  S5G_LOG(LogLevel::kInfo, "slice")
      << "slice created (" << isolation_mode_name(config_.mode) << ") in "
      << sim::to_s(creation.total) << " s";
  return creation;
}

ran::UsimConfig Slice::subscriber(std::uint32_t i) const {
  if (!config_.population.empty()) {
    // Population mode re-derives on demand — O(1) memory per call, and
    // identical to what provision_subscribers() put in the UDR.
    if (i >= config_.population.size()) {
      throw std::out_of_range("Slice: subscriber index");
    }
    return usim_for(derived_record(config_.population[i]));
  }
  if (i >= subscribers_.size()) {
    throw std::out_of_range("Slice: subscriber index");
  }
  return usim_for(subscribers_[i]);
}

ran::UsimConfig Slice::usim_for(const nf::SubscriberRecord& rec) const {
  ran::UsimConfig usim;
  usim.plmn = config_.plmn;
  usim.msin = rec.supi.value.substr(config_.plmn.id().size());
  usim.k = rec.k;
  usim.opc = rec.opc;
  // The USIM's SQNms trails the network's by one step at provisioning.
  usim.sqn_ms = rec.sqn > 0 ? rec.sqn - 1 : 0;
  usim.hn_public = Bytes(hn_key_.public_key.begin(),
                         hn_key_.public_key.end());
  return usim;
}

ran::RegistrationResult Slice::register_subscriber(std::uint32_t i,
                                                   bool with_pdu) {
  ran::UeDevice ue(subscriber(i), config_.seed ^ (0x0eULL + i),
                   eph_pool_.get());
  return gnbsim_->register_ue(ue, with_pdu);
}

}  // namespace shield5g::slice
