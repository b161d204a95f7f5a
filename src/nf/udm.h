// Unified Data Management: SIDF (SUCI de-concealment) and HE AV
// generation (paper §II-A, Fig. 5).
//
// In `kMonolithic` mode the sensitive AKA functions run inside the VNF
// (legacy OAI layout); in `kExternal` mode they are offloaded to the
// eUDM P-AKA module over the bus, exactly as the paper's modified VNFs
// do during UE registration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/rng.h"
#include "crypto/milenage.h"
#include "crypto/x25519.h"
#include "json/json.h"
#include "nf/types.h"
#include "nf/vnf.h"

namespace shield5g::nf {

enum class AkaDeployment {
  kMonolithic,  // AKA functions inside the VNF
  kExternal,    // offloaded to the e*-AKA module (container or SGX)
};

struct UdmConfig {
  std::string name = "udm";
  std::string udr_service = "udr";
  /// eUDM P-AKA endpoints. More than one entry enables the horizontal
  /// scaling the paper's design supports ("network operators can scale
  /// the enclave worker nodes ... on demand", §V-B7); requests are
  /// distributed round-robin.
  std::vector<std::string> eudm_services = {"eudm-aka"};
  AkaDeployment deployment = AkaDeployment::kExternal;
  /// Home-network ECIES key pair for SIDF (Profile A).
  crypto::X25519KeyPair hn_key{};
  /// Identifier of hn_key; the SIDF refuses SUCIs that name another.
  std::uint8_t hn_key_id = 1;
  /// Seed of the UDM's RAND generator. A dedicated source keeps the
  /// challenge sequence independent of transport-level randomness, so
  /// the same provisioning yields identical vectors across deployments.
  std::uint64_t rand_seed = 0xda7eb45eULL;
  /// Bound on the per-subscriber MILENAGE context cache. Large enough
  /// that every existing workload's working set fits (zero evictions,
  /// bit-identical to the old unbounded map); small enough that a
  /// million-subscriber serving shard cannot accrete one AES schedule
  /// per subscriber ever authenticated.
  std::size_t milenage_cache_capacity = 1024;
};

class Udm : public Vnf {
 public:
  Udm(net::Bus& bus, UdmConfig config);

  const UdmConfig& config() const noexcept { return config_; }
  void set_deployment(AkaDeployment mode) noexcept {
    config_.deployment = mode;
  }

  std::uint64_t av_generated_count() const noexcept { return av_count_; }
  std::uint64_t auth_events() const noexcept { return auth_events_; }

  /// Next eUDM replica in round-robin order.
  const std::string& next_eudm() noexcept {
    return config_.eudm_services[eudm_rr_++ % config_.eudm_services.size()];
  }

 private:
  void register_routes();

  /// Resolves a SUCI (or plain SUPI) from the request body; charges the
  /// de-concealment crypto to this VNF's environment.
  std::optional<Supi> resolve_identity(const json::Value& body);

  /// Cached per-subscriber MILENAGE context (monolithic deployment):
  /// the AES schedule for K is expanded once, then revalidated in
  /// constant time against the credentials the UDR returned. Bounded
  /// LRU (UdmConfig::milenage_cache_capacity); evictions land on the
  /// udm.milenage.evict counter.
  struct MilenageEntry {
    SecretBytes k;
    SecretBytes opc;
    crypto::Milenage ctx;
  };
  const crypto::Milenage& milenage_for(const std::string& supi,
                                       const SecretBytes& k,
                                       const SecretBytes& opc);

  UdmConfig config_;
  LruCache<std::string, MilenageEntry> milenage_cache_;
  Rng rand_rng_;
  std::uint64_t av_count_ = 0;
  std::uint64_t auth_events_ = 0;
  std::size_t eudm_rr_ = 0;
};

}  // namespace shield5g::nf
