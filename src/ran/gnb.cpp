#include "ran/gnb.h"

#include <stdexcept>

#include "common/log.h"

namespace shield5g::ran {

Gnb::Gnb(sim::VirtualClock& clock, nf::Amf& amf, CellConfig cell,
         std::uint64_t seed)
    : clock_(clock), amf_(amf), cell_(std::move(cell)), radio_(clock, seed) {
  // NG Setup: register this gNB (and its broadcast PLMN) with the AMF.
  const auto response = exchange_ngap(
      nf::NgapMessage::ng_setup_request(cell_.plmn, cell_.name));
  if (response) {
    const auto decoded = nf::NgapMessage::decode(*response);
    ng_ready_ =
        decoded && decoded->type == nf::NgapType::kNgSetupResponse;
  }
  if (!ng_ready_) {
    S5G_LOG(LogLevel::kWarn, "gnb")
        << cell_.name << ": NG Setup rejected for PLMN " << cell_.plmn.id();
  }
}

std::optional<Bytes> Gnb::exchange_ngap(const nf::NgapMessage& msg) {
  clock_.advance(ngap_.one_way);  // gNB -> AMF (N2)
  // NGAP ingress shares the AMF's worker pool: under open-loop load a
  // NAS transport waits for a free worker like any SBI request, and is
  // silently dropped (no NGAP-level 503) when the queue is full.
  net::ServiceQueue& queue = amf_.server().queue();
  const net::ServiceQueue::Admission adm = queue.admit(clock_.now());
  if (!adm.accepted) return std::nullopt;
  if (adm.start > clock_.now()) clock_.advance_to(adm.start);
  const auto response = amf_.handle_ngap(msg.encode());
  queue.complete(adm.worker, clock_.now());
  if (response) clock_.advance(ngap_.one_way);  // AMF -> gNB
  return response;
}

std::uint64_t Gnb::attach_ue() {
  radio_.rrc_setup();
  const std::uint64_t id = next_ue_id_++;
  contexts_[id] = UeAssociation{};
  return id;
}

std::optional<Bytes> Gnb::deliver_uplink(std::uint64_t ran_ue_id,
                                         ByteView nas) {
  const auto it = contexts_.find(ran_ue_id);
  if (it == contexts_.end()) {
    throw std::logic_error("Gnb: unknown RAN UE id");
  }
  if (!ng_ready_) {
    throw std::logic_error("Gnb: NG interface is down (setup rejected)");
  }
  UeAssociation& assoc = it->second;
  radio_.traverse(nas.size());  // UE -> gNB

  const nf::NgapMessage uplink =
      assoc.initial_sent
          ? nf::NgapMessage::uplink_nas(ran_ue_id, assoc.amf_ue_id,
                                        Bytes(nas.begin(), nas.end()))
          : nf::NgapMessage::initial_ue(ran_ue_id, cell_.plmn,
                                        Bytes(nas.begin(), nas.end()));
  assoc.initial_sent = true;

  const auto response = exchange_ngap(uplink);
  if (!response) return std::nullopt;
  const auto downlink = nf::NgapMessage::decode(*response);
  if (!downlink ||
      downlink->type != nf::NgapType::kDownlinkNasTransport ||
      downlink->ran_ue_id != ran_ue_id) {
    return std::nullopt;
  }
  assoc.amf_ue_id = downlink->amf_ue_id;
  radio_.traverse(downlink->nas_pdu.size());  // gNB -> UE
  return downlink->nas_pdu;
}

void Gnb::release_ue(std::uint64_t ran_ue_id) {
  const auto it = contexts_.find(ran_ue_id);
  if (it == contexts_.end()) return;
  nf::NgapMessage release;
  release.type = nf::NgapType::kUeContextReleaseCommand;
  release.ran_ue_id = ran_ue_id;
  exchange_ngap(release);
  contexts_.erase(it);
}

}  // namespace shield5g::ran
