#include "ran/ue.h"

#include "common/log.h"
#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"
#include "nf/aka_core.h"
#include "nf/types.h"

namespace shield5g::ran {

UeDevice::UeDevice(UsimConfig usim, std::uint64_t seed,
                   crypto::EphemeralKeyPool* eph_pool)
    : usim_(std::move(usim)), rng_(seed), eph_pool_(eph_pool) {
  snn_ = crypto::serving_network_name(usim_.config().plmn.mcc,
                                      usim_.config().plmn.mnc);
}

crypto::Suci UeDevice::conceal_supi() {
  // Pool path: the ephemeral pair comes pregenerated, so the SUCI costs
  // one in-line scalar mult (the shared secret against the home-network
  // key) instead of two. Legacy path is byte-identical to earlier
  // revisions (same rng_ stream).
  if (eph_pool_ != nullptr) return usim_.make_suci(eph_pool_->acquire());
  return usim_.make_suci(rng_.bytes(32));
}

Bytes UeDevice::start_registration() {
  const crypto::Suci suci = conceal_supi();
  nf::NasMessage msg;
  msg.type = nf::NasType::kRegistrationRequest;
  msg.set(nf::NasIe::kSuci, to_bytes(suci.to_string()));
  msg.set(nf::NasIe::kUeSecurityCapability, Bytes{0x0f, 0x0f});
  state_ = UeNasState::kWaitAuth;
  ul_count_ = 0;
  dl_count_ = 0;
  return msg.encode();
}

Bytes UeDevice::start_reregistration() {
  if (guti_.empty() || kamf_.empty()) {
    // No previous session to resume; fall back to a fresh registration.
    return start_registration();
  }
  nf::NasMessage msg;
  msg.type = nf::NasType::kRegistrationRequest;
  msg.set(nf::NasIe::kGuti, to_bytes(guti_));
  msg.set(nf::NasIe::kUeSecurityCapability, Bytes{0x0f, 0x0f});
  state_ = UeNasState::kReregistering;
  ul_count_ = 0;
  dl_count_ = 0;
  ue_ip_.clear();
  return msg.encode();
}

Bytes UeDevice::protect_uplink(const nf::NasMessage& msg) {
  return nf::SecuredNas::protect_ciphered(msg, knas_int_, knas_enc_,
                                          ul_count_++, false)
      .encode();
}

std::optional<Bytes> UeDevice::on_auth_request(const nf::NasMessage& msg) {
  if (!msg.has(nf::NasIe::kRand) || !msg.has(nf::NasIe::kAutn)) {
    state_ = UeNasState::kFailed;
    return std::nullopt;
  }
  rand_ = msg.at(nf::NasIe::kRand);
  const Bytes& autn = msg.at(nf::NasIe::kAutn);

  const AuthOutcome outcome = usim_.verify_challenge(rand_, autn);
  if (std::holds_alternative<AuthMacFailure>(outcome)) {
    S5G_LOG(LogLevel::kWarn, "ue") << "AUTN MAC failure";
    state_ = UeNasState::kFailed;
    nf::NasMessage fail;
    fail.type = nf::NasType::kAuthenticationFailure;
    fail.set(nf::NasIe::kCause,
             Bytes{static_cast<std::uint8_t>(nf::NasCause::kMacFailure)});
    return fail.encode();
  }
  if (const auto* sync = std::get_if<AuthSyncFailure>(&outcome)) {
    S5G_LOG(LogLevel::kInfo, "ue") << "SQN out of range, sending AUTS";
    nf::NasMessage fail;
    fail.type = nf::NasType::kAuthenticationFailure;
    fail.set(nf::NasIe::kCause,
             Bytes{static_cast<std::uint8_t>(nf::NasCause::kSynchFailure)});
    fail.set(nf::NasIe::kAuts, sync->auts);
    // Stay in kWaitAuth: the network resynchronises and re-challenges.
    return fail.encode();
  }

  const auto& ok = std::get<AuthSuccess>(outcome);
  // UE-side key hierarchy (mirrors the eUDM/eAUSF/eAMF derivations).
  const Bytes res_star =
      crypto::derive_res_star(ok.ck, ok.ik, snn_, rand_, ok.res);
  const auto autn_fields = crypto::parse_autn(autn);
  const SecretBytes kausf =
      crypto::derive_kausf(ok.ck, ok.ik, snn_, autn_fields.sqn_xor_ak);
  kseaf_ = crypto::derive_kseaf(kausf, snn_);
  kamf_ = nf::derive_kamf_for(kseaf_, usim_.supi());

  nf::NasMessage resp;
  resp.type = nf::NasType::kAuthenticationResponse;
  resp.set(nf::NasIe::kResStar, res_star);
  state_ = UeNasState::kWaitSecurityMode;
  return resp.encode();
}

std::optional<Bytes> UeDevice::on_security_mode_command(
    const nf::SecuredNas& sec) {
  // Derive the NAS keys from our K_AMF, then verify the AMF's MAC: this
  // only succeeds when both sides derived identical hierarchies.
  const auto inner_peek = nf::NasMessage::decode(sec.payload);
  if (!inner_peek || !inner_peek->has(nf::NasIe::kSelectedAlgorithms)) {
    state_ = UeNasState::kFailed;
    return std::nullopt;
  }
  const Bytes& algos = inner_peek->at(nf::NasIe::kSelectedAlgorithms);
  knas_enc_ = crypto::derive_algo_key(kamf_, crypto::AlgoType::kNasEnc,
                                      algos.at(0));
  knas_int_ = crypto::derive_algo_key(kamf_, crypto::AlgoType::kNasInt,
                                      algos.at(1));
  const auto verified = sec.verify(knas_int_);
  if (!verified || sec.count != dl_count_) {
    S5G_LOG(LogLevel::kWarn, "ue") << "SecurityModeCommand MAC failure";
    state_ = UeNasState::kFailed;
    return std::nullopt;
  }
  ++dl_count_;

  nf::NasMessage complete;
  complete.type = nf::NasType::kSecurityModeComplete;
  state_ = UeNasState::kWaitAccept;
  return protect_uplink(complete);
}

std::optional<Bytes> UeDevice::on_registration_accept(
    const nf::NasMessage& msg) {
  if (msg.has(nf::NasIe::kGuti)) {
    guti_ = to_string(msg.at(nf::NasIe::kGuti));
  }
  state_ = UeNasState::kRegistered;
  nf::NasMessage complete;
  complete.type = nf::NasType::kRegistrationComplete;
  return protect_uplink(complete);
}

std::optional<Bytes> UeDevice::on_pdu_accept(const nf::NasMessage& msg) {
  if (msg.type == nf::NasType::kPduSessionEstablishmentAccept &&
      msg.has(nf::NasIe::kUeIp)) {
    ue_ip_ = to_string(msg.at(nf::NasIe::kUeIp));
    state_ = UeNasState::kSessionUp;
  } else {
    state_ = UeNasState::kFailed;
  }
  return std::nullopt;
}

Bytes UeDevice::request_pdu_session(std::uint8_t session_id,
                                    const std::string& dnn) {
  nf::NasMessage req;
  req.type = nf::NasType::kPduSessionEstablishmentRequest;
  req.set(nf::NasIe::kPduSessionId, Bytes{session_id});
  req.set(nf::NasIe::kDnn, to_bytes(dnn));
  state_ = UeNasState::kWaitPduAccept;
  return protect_uplink(req);
}

Bytes UeDevice::request_deregistration() {
  nf::NasMessage req;
  req.type = nf::NasType::kDeregistrationRequest;
  state_ = UeNasState::kDeregistering;
  return protect_uplink(req);
}

std::optional<Bytes> UeDevice::handle_downlink(ByteView nas) {
  if (nas.empty()) {
    state_ = UeNasState::kFailed;
    return std::nullopt;
  }
  if (nas[0] == 0x7f) {
    const auto sec = nf::SecuredNas::decode(nas);
    if (!sec) {
      state_ = UeNasState::kFailed;
      return std::nullopt;
    }
    if (state_ == UeNasState::kWaitSecurityMode ||
        state_ == UeNasState::kReregistering) {
      return on_security_mode_command(*sec);
    }
    const auto inner = sec->open(knas_int_, knas_enc_);
    if (!inner || sec->count != dl_count_) {
      state_ = UeNasState::kFailed;
      return std::nullopt;
    }
    ++dl_count_;
    switch (inner->type) {
      case nf::NasType::kRegistrationAccept:
        return on_registration_accept(*inner);
      case nf::NasType::kPduSessionEstablishmentAccept:
      case nf::NasType::kPduSessionEstablishmentReject:
        return on_pdu_accept(*inner);
      case nf::NasType::kDeregistrationAccept:
        state_ = UeNasState::kIdle;
        guti_.clear();
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  const auto msg = nf::NasMessage::decode(nas);
  if (!msg) {
    state_ = UeNasState::kFailed;
    return std::nullopt;
  }
  switch (msg->type) {
    case nf::NasType::kIdentityRequest: {
      // Unknown GUTI at the AMF: reveal the concealed identity and run
      // a fresh authentication.
      const crypto::Suci suci = conceal_supi();
      nf::NasMessage response;
      response.type = nf::NasType::kIdentityResponse;
      response.set(nf::NasIe::kSuci, to_bytes(suci.to_string()));
      state_ = UeNasState::kWaitAuth;
      return response.encode();
    }
    case nf::NasType::kAuthenticationRequest:
      return on_auth_request(*msg);
    case nf::NasType::kRegistrationReject:
    case nf::NasType::kAuthenticationReject:
      state_ = UeNasState::kFailed;
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

}  // namespace shield5g::ran
