// Network Repository Function: VNF profile registry and mutual
// discovery (paper §II-A).
#pragma once

#include <map>
#include <string>

#include "nf/vnf.h"

namespace shield5g::nf {

struct NfProfile {
  std::string instance_id;
  std::string nf_type;       // "UDM", "AUSF", ...
  std::string service_name;  // bus attachment name
};

class Nrf : public Vnf {
 public:
  explicit Nrf(net::Bus& bus, const std::string& name = "nrf");

 private:
  void register_routes();

  std::map<std::string, NfProfile> profiles_;  // by instance id
};

}  // namespace shield5g::nf
