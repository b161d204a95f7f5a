// Radio model: cell broadcast (SIB1-level PLMN info) and air-interface
// latency. Stands in for the USRP X310 front-end of the paper's OTA
// testbed (Table IV: PLMN 00101, 106 PRBs, 3.6192 GHz).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nf/types.h"
#include "sim/clock.h"

namespace shield5g::ran {

struct CellConfig {
  nf::Plmn plmn;
  double frequency_ghz = 3.6192;
  std::uint32_t prbs = 106;
  std::string name = "oai-gnb";
};

/// Air-interface + RAN processing latency constants.
struct RadioCosts {
  sim::Nanos air_one_way = 4'200 * sim::kMicrosecond;  // incl. scheduling
  sim::Nanos rrc_setup = 12 * sim::kMillisecond;       // 3-leg RRC setup
  double jitter_sigma = 0.08;
};

class RadioLink {
 public:
  RadioLink(sim::VirtualClock& clock, std::uint64_t seed)
      : clock_(clock), rng_(seed) {}

  /// Charges one air-interface traversal (either direction).
  void traverse(std::size_t bytes);

  /// Charges the RRC connection setup exchange.
  void rrc_setup();

 private:
  sim::VirtualClock& clock_;
  RadioCosts costs_;
  Rng rng_;
};

/// A UE's cell search over the available cells: returns the index of the
/// first cell whose PLMN the UE may camp on, or -1. Mirrors the paper's
/// observation that the COTS UE only detects the OAI gNB when the test
/// PLMN 001/01 is broadcast.
int plmn_search(const std::vector<CellConfig>& cells,
                const std::vector<nf::Plmn>& allowed_plmns);

}  // namespace shield5g::ran
