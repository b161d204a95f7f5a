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

#include "common/rng.h"
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
};

class Udm : public Vnf {
 public:
  Udm(net::Bus& bus, UdmConfig config);

  const UdmConfig& config() const noexcept { return config_; }

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

  /// Seed of the RAND generator. A dedicated source keeps the challenge
  /// sequence independent of transport-level randomness, so the same
  /// provisioning yields identical vectors across deployments.
  static constexpr std::uint64_t kRandSeed = 0xda7eb45eULL;
  UdmConfig config_;
  Rng rand_rng_;
  std::uint64_t av_count_ = 0;
  std::uint64_t auth_events_ = 0;
  std::size_t eudm_rr_ = 0;
};

}  // namespace shield5g::nf
