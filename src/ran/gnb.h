// gNB: relays NAS between UEs and the AMF over the air interface and
// the NGAP link (paper Fig. 2; trusted entity in the threat model).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "nf/amf.h"
#include "ran/radio.h"

namespace shield5g::ran {

struct NgapCosts {
  sim::Nanos one_way = 350 * sim::kMicrosecond;
};

class Gnb {
 public:
  /// Construction performs the NG Setup procedure with the AMF over
  /// NGAP; the AMF admits the gNB only when the broadcast PLMN matches
  /// its served PLMN.
  Gnb(sim::VirtualClock& clock, nf::Amf& amf, CellConfig cell,
      std::uint64_t seed = 0x9bb5eedULL);

  const CellConfig& cell() const noexcept { return cell_; }
  sim::VirtualClock& clock() noexcept { return clock_; }

  /// NG Setup outcome (false when the AMF rejected the PLMN).
  bool ng_ready() const noexcept { return ng_ready_; }

  /// RRC connection setup: allocates a RAN UE NGAP id.
  std::uint64_t attach_ue();

  /// Uplink NAS in, optional downlink NAS out. The NAS rides NGAP
  /// Initial UE Message / Uplink NAS Transport toward the AMF and
  /// Downlink NAS Transport back.
  std::optional<Bytes> deliver_uplink(std::uint64_t ran_ue_id, ByteView nas);

  /// Releases the UE context on both sides (NGAP UE Context Release).
  void release_ue(std::uint64_t ran_ue_id);

  std::size_t attached_count() const noexcept { return contexts_.size(); }

 private:
  struct UeAssociation {
    bool initial_sent = false;
    std::uint64_t amf_ue_id = 0;
  };

  std::optional<Bytes> exchange_ngap(const nf::NgapMessage& msg);

  sim::VirtualClock& clock_;
  nf::Amf& amf_;
  CellConfig cell_;
  RadioLink radio_;
  NgapCosts ngap_;
  std::map<std::uint64_t, UeAssociation> contexts_;
  std::uint64_t next_ue_id_ = 1;
  bool ng_ready_ = false;
};

}  // namespace shield5g::ran
