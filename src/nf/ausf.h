// Authentication Server Function (paper §II-A, Fig. 5).
//
// Verifies the serving network's authorization, drives HE AV generation
// through the UDM, derives the SE AV (HXRES*) and K_SEAF — in external
// mode via the eAUSF P-AKA module — and confirms the UE's RES* during
// the second phase of 5G-AKA.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "nf/types.h"
#include "nf/udm.h"
#include "nf/vnf.h"

namespace shield5g::nf {

struct AusfConfig {
  std::string name = "ausf";
  std::string udm_service = "udm";
  std::string eausf_service = "eausf-aka";
  AkaDeployment deployment = AkaDeployment::kExternal;
  /// Serving networks authorized to request authentication.
  std::set<std::string> allowed_snns;
};

class Ausf : public Vnf {
 public:
  Ausf(net::Bus& bus, AusfConfig config);

  const AusfConfig& config() const noexcept { return config_; }

 private:
  struct AuthContext {
    Supi supi;
    std::string snn;
    Bytes rand;
    Bytes xres_star;
    SecretBytes kseaf;  // anchor key: tainted until the SEAF hand-off
  };

  void register_routes();

  AusfConfig config_;
  std::map<std::string, AuthContext> contexts_;
  std::uint64_t next_ctx_id_ = 0;
};

}  // namespace shield5g::nf
