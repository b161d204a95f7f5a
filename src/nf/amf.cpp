#include "nf/amf.h"

#include "common/log.h"
#include "crypto/cost.h"
#include "crypto/key_hierarchy.h"
#include "crypto/suci.h"
#include "nf/aka_core.h"
#include "nf/sbi.h"

namespace shield5g::nf {

namespace {
constexpr sim::Nanos kNasProcFixed = 2'000;
constexpr double kNasProcPerByte = 20.0;
/// Selected NAS algorithm identifiers (5G-EA2/5G-IA2 analogues).
constexpr std::uint8_t kCipheringAlgo = 2;
constexpr std::uint8_t kIntegrityAlgo = 2;
}  // namespace

Amf::Amf(net::Bus& bus, AmfConfig config)
    : Vnf(config.name, bus),
      config_(std::move(config)),
      snn_(crypto::serving_network_name(config_.plmn.mcc, config_.plmn.mnc)) {}

void Amf::charge_nas(std::size_t bytes) {
  env_.compute(kNasProcFixed + static_cast<sim::Nanos>(
                                   kNasProcPerByte * double(bytes)));
}

UeState Amf::ue_state(std::uint64_t ran_ue_id) const {
  const auto it = ues_.find(ran_ue_id);
  return it == ues_.end() ? UeState::kDeregistered : it->second.state;
}

std::optional<std::string> Amf::ue_supi(std::uint64_t ran_ue_id) const {
  const auto it = ues_.find(ran_ue_id);
  if (it == ues_.end() || it->second.supi.value.empty()) return std::nullopt;
  return it->second.supi.value;
}

void Amf::release_ue(std::uint64_t ran_ue_id) { ues_.erase(ran_ue_id); }

void Amf::flush_contexts() {
  ues_.clear();
  guti_contexts_.clear();
}

Bytes Amf::protect_downlink(UeContext& ctx, const NasMessage& msg,
                            bool cipher) {
  crypto::OpMeter ops;
  const SecuredNas sec =
      cipher ? SecuredNas::protect_ciphered(msg, ctx.knas_int, ctx.knas_enc,
                                            ctx.dl_count++, true)
             : SecuredNas::protect(msg, ctx.knas_int, ctx.dl_count++, true);
  env_.compute(ops.ns(bus_.costs().primitives));
  return sec.encode();
}

Bytes Amf::send_security_mode_command(UeContext& ctx) {
  ctx.state = UeState::kSecurityMode;
  NasMessage smc;
  smc.type = NasType::kSecurityModeCommand;
  smc.set(NasIe::kSelectedAlgorithms,
          Bytes{kCipheringAlgo, kIntegrityAlgo});
  smc.set(NasIe::kNgKsi, Bytes{ctx.ngksi});
  // The SMC itself is integrity protected but not ciphered: the UE must
  // read the selected algorithms before it can derive the keys.
  return protect_downlink(ctx, smc, /*cipher=*/false);
}

std::optional<Bytes> Amf::start_authentication(UeContext& ctx) {
  json::Object body;
  if (!ctx.supi.value.empty()) {
    body["supi"] = ctx.supi.value;
  } else {
    body["suci"] = ctx.suci;
  }
  body["servingNetworkName"] = snn_;
  auto auth = call(config_.ausf_service,
                   json_post("/nausf-auth/v1/ue-authentications",
                             json::Value(std::move(body))));
  if (auth.response.status != 201) {
    NasMessage reject;
    reject.type = NasType::kRegistrationReject;
    reject.set(NasIe::kCause,
               Bytes{static_cast<std::uint8_t>(NasCause::kIllegalUe)});
    return reject.encode();
  }
  const auto av = parse_body(auth.response.body);
  const auto ctx_id = av ? av->get_string("authCtxId") : std::nullopt;
  const auto rand = av ? hex_bytes(*av, "rand") : std::nullopt;
  const auto autn = av ? hex_bytes(*av, "autn") : std::nullopt;
  const auto hxres = av ? hex_bytes(*av, "hxresStar") : std::nullopt;
  if (!ctx_id || !rand || !autn || !hxres) return std::nullopt;

  ctx.auth_ctx_id = *ctx_id;
  ctx.rand = *rand;
  ctx.hxres_star = *hxres;
  ctx.state = UeState::kAuthenticating;

  NasMessage out;
  out.type = NasType::kAuthenticationRequest;
  out.set(NasIe::kNgKsi, Bytes{ctx.ngksi});
  out.set(NasIe::kRand, *rand);
  out.set(NasIe::kAutn, *autn);
  out.set(NasIe::kAbba, kAbba);
  return out.encode();
}

std::optional<Bytes> Amf::on_registration_request(UeContext& ctx,
                                                  const NasMessage& msg) {
  // GUTI-based re-registration: resolve the saved security context and
  // go straight to the security mode procedure, skipping a fresh AKA.
  if (msg.has(NasIe::kGuti)) {
    const std::string guti = to_string(msg.at(NasIe::kGuti));
    const auto it = guti_contexts_.find(guti);
    if (it != guti_contexts_.end()) {
      ctx = UeContext{};
      ctx.supi = it->second.supi;
      ctx.kamf = it->second.kamf;
      ctx.knas_int = it->second.knas_int;
      ctx.knas_enc = it->second.knas_enc;
      guti_contexts_.erase(it);  // a fresh GUTI is issued on accept
      ++guti_reregistrations_;
      S5G_LOG(LogLevel::kInfo, "amf")
          << "GUTI re-registration for " << ctx.supi.value;
      return send_security_mode_command(ctx);
    }
    // Unknown GUTI (e.g. AMF restarted): ask for the concealed identity.
    ctx = UeContext{};
    ctx.state = UeState::kIdentityPending;
    ++identity_requests_;
    NasMessage identity;
    identity.type = NasType::kIdentityRequest;
    return identity.encode();
  }
  if (!msg.has(NasIe::kSuci)) {
    NasMessage reject;
    reject.type = NasType::kRegistrationReject;
    reject.set(NasIe::kCause,
               Bytes{static_cast<std::uint8_t>(NasCause::kIllegalUe)});
    return reject.encode();
  }
  ctx = UeContext{};  // fresh registration resets any stale context
  ctx.suci = to_string(msg.at(NasIe::kSuci));
  // PLMN admission: the SUCI's home PLMN must be served here (the
  // paper's OTA test needed PLMN 00101 for the COTS UE to attach).
  const auto suci = crypto::Suci::from_string(ctx.suci);
  if (!suci || suci->mcc != config_.plmn.mcc ||
      suci->mnc != config_.plmn.mnc) {
    NasMessage reject;
    reject.type = NasType::kRegistrationReject;
    reject.set(NasIe::kCause,
               Bytes{static_cast<std::uint8_t>(NasCause::kPlmnNotAllowed)});
    return reject.encode();
  }
  return start_authentication(ctx);
}

std::optional<Bytes> Amf::on_auth_response(UeContext& ctx,
                                           const NasMessage& msg) {
  if (ctx.state != UeState::kAuthenticating || !msg.has(NasIe::kResStar)) {
    return std::nullopt;
  }
  const Bytes& res_star = msg.at(NasIe::kResStar);

  // HRES* check at the security edge (paper Fig. 5 "Calculate HXRES*").
  crypto::OpMeter ops;
  const Bytes hres_star =
      crypto::derive_hxres_star(ctx.rand, res_star, kHxresStarBytes);
  env_.compute(ops.ns(bus_.costs().primitives));
  if (!ct_equal(hres_star, ctx.hxres_star)) {
    NasMessage reject;
    reject.type = NasType::kAuthenticationReject;
    return reject.encode();
  }

  // Confirm with the AUSF; it releases K_SEAF on success.
  json::Object confirm;
  confirm["resStar"] = hex_field(res_star);
  auto conf = call(config_.ausf_service,
                   json_put("/nausf-auth/v1/ue-authentications/" +
                                ctx.auth_ctx_id + "/5g-aka-confirmation",
                            json::Value(std::move(confirm))));
  const auto conf_body = parse_body(conf.response.body);
  const auto result =
      conf_body ? conf_body->get_string("result") : std::nullopt;
  if (conf.response.status != 200 || !result ||
      *result != "AUTHENTICATION_SUCCESS") {
    NasMessage reject;
    reject.type = NasType::kAuthenticationReject;
    return reject.encode();
  }
  const auto supi = conf_body->get_string("supi");
  auto kseaf = secret_hex_bytes(*conf_body, "kseaf");
  if (!supi || !kseaf) return std::nullopt;
  ctx.supi = Supi{*supi};
  ctx.kseaf = std::move(*kseaf);

  // K_AMF: inside the eAMF P-AKA module (Table I: KSEAF in, KAMF out)
  // or locally in monolithic mode.
  if (config_.deployment == AkaDeployment::kExternal) {
    json::Object paka;
    paka["kseaf"] = secret_hex_field(ctx.kseaf, DeclassifyReason::kTransport,
                                     secret_ctx());
    paka["supi"] = ctx.supi.value;
    auto der = call(config_.eamf_service,
                    json_post("/paka/v1/derive-kamf",
                              json::Value(std::move(paka))));
    const auto der_body = parse_body(der.response.body);
    auto kamf =
        der_body ? secret_hex_bytes(*der_body, "kamf") : std::nullopt;
    if (der.response.status != 200 || !kamf) return std::nullopt;
    ctx.kamf = std::move(*kamf);
  } else {
    crypto::OpMeter kops;
    ctx.kamf = derive_kamf_for(ctx.kseaf, ctx.supi.value);
    env_.compute(kops.ns(bus_.costs().primitives));
  }

  // NAS algorithm keys stay in the AMF proper (TS 33.501 A.8).
  crypto::OpMeter kops;
  ctx.knas_enc = crypto::derive_algo_key(ctx.kamf, crypto::AlgoType::kNasEnc,
                                         kCipheringAlgo);
  ctx.knas_int = crypto::derive_algo_key(ctx.kamf, crypto::AlgoType::kNasInt,
                                         kIntegrityAlgo);
  env_.compute(kops.ns(bus_.costs().primitives));
  return send_security_mode_command(ctx);
}

std::optional<Bytes> Amf::on_identity_response(UeContext& ctx,
                                               const NasMessage& msg) {
  if (ctx.state != UeState::kIdentityPending || !msg.has(NasIe::kSuci)) {
    return std::nullopt;
  }
  ctx.suci = to_string(msg.at(NasIe::kSuci));
  return start_authentication(ctx);
}

std::optional<Bytes> Amf::on_auth_failure(UeContext& ctx,
                                          const NasMessage& msg) {
  if (ctx.state != UeState::kAuthenticating || !msg.has(NasIe::kCause)) {
    return std::nullopt;
  }
  const auto cause = static_cast<NasCause>(msg.at(NasIe::kCause).at(0));
  if (cause != NasCause::kSynchFailure || !msg.has(NasIe::kAuts)) {
    NasMessage reject;
    reject.type = NasType::kAuthenticationReject;
    return reject.encode();
  }
  if (++ctx.auth_attempts > 2) {
    NasMessage reject;
    reject.type = NasType::kAuthenticationReject;
    return reject.encode();
  }

  // Resynchronise through AUSF/UDM, then retry with a fresh vector.
  json::Object resync;
  resync["suci"] = ctx.suci;
  resync["rand"] = hex_field(ctx.rand);
  resync["auts"] = hex_field(msg.at(NasIe::kAuts));
  resync["servingNetworkName"] = snn_;
  auto res = call(config_.ausf_service,
                  json_post("/nausf-auth/v1/resync",
                            json::Value(std::move(resync))));
  if (res.response.status != 200) {
    NasMessage reject;
    reject.type = NasType::kAuthenticationReject;
    return reject.encode();
  }
  ++resyncs_;
  return start_authentication(ctx);
}

std::optional<Bytes> Amf::on_security_mode_complete(UeContext& ctx) {
  if (ctx.state != UeState::kSecurityMode) return std::nullopt;
  ctx.guti = Guti{config_.plmn, 1, 1, next_tmsi_++};
  ctx.state = UeState::kRegistered;
  ++registrations_;
  guti_contexts_[ctx.guti.to_string()] =
      StoredContext{ctx.supi, ctx.kamf, ctx.knas_int, ctx.knas_enc};
  S5G_LOG(LogLevel::kInfo, "amf")
      << ctx.supi.value << " registered, GUTI " << ctx.guti.to_string();

  NasMessage accept;
  accept.type = NasType::kRegistrationAccept;
  accept.set(NasIe::kGuti, to_bytes(ctx.guti.to_string()));
  return protect_downlink(ctx, accept);
}

std::optional<Bytes> Amf::on_deregistration_request(std::uint64_t ran_ue_id,
                                                    UeContext& ctx) {
  if (ctx.state != UeState::kRegistered) return std::nullopt;
  // Release every PDU session at the SMF, then the NAS context.
  for (const auto& [session_id, ip] : ctx.pdu_sessions) {
    net::HttpRequest del;
    del.method = net::Method::kDelete;
    del.path = "/nsmf-pdusession/v1/sm-contexts/" + ctx.supi.value + "/" +
               std::to_string(session_id);
    call(config_.smf_service, del);
  }
  guti_contexts_.erase(ctx.guti.to_string());
  ++deregistrations_;
  S5G_LOG(LogLevel::kInfo, "amf") << ctx.supi.value << " deregistered";

  NasMessage accept;
  accept.type = NasType::kDeregistrationAccept;
  const Bytes response = protect_downlink(ctx, accept);
  ues_.erase(ran_ue_id);
  return response;
}

std::optional<Bytes> Amf::on_pdu_session_request(UeContext& ctx,
                                                 const NasMessage& msg) {
  if (ctx.state != UeState::kRegistered) return std::nullopt;
  const std::uint8_t session_id =
      msg.has(NasIe::kPduSessionId) ? msg.at(NasIe::kPduSessionId).at(0) : 1;
  const std::string dnn =
      msg.has(NasIe::kDnn) ? to_string(msg.at(NasIe::kDnn)) : "internet";

  json::Object sm;
  sm["supi"] = ctx.supi.value;
  sm["pduSessionId"] = static_cast<std::int64_t>(session_id);
  sm["dnn"] = dnn;
  auto create = call(config_.smf_service,
                     json_post("/nsmf-pdusession/v1/sm-contexts",
                               json::Value(sm)));
  if (create.response.status == 409) {
    // Stale context from a previous registration of this UE (e.g. a
    // GUTI re-registration after idle): release and re-establish.
    net::HttpRequest del;
    del.method = net::Method::kDelete;
    del.path = "/nsmf-pdusession/v1/sm-contexts/" + ctx.supi.value + "/" +
               std::to_string(session_id);
    call(config_.smf_service, del);
    create = call(config_.smf_service,
                  json_post("/nsmf-pdusession/v1/sm-contexts",
                            json::Value(std::move(sm))));
  }
  const auto created = parse_body(create.response.body);
  const auto ue_ip = created ? created->get_string("ueIp") : std::nullopt;
  if (create.response.status != 201 || !ue_ip) {
    NasMessage reject;
    reject.type = NasType::kPduSessionEstablishmentReject;
    reject.set(NasIe::kPduSessionId, Bytes{session_id});
    return protect_downlink(ctx, reject);
  }
  ctx.pdu_sessions[session_id] = *ue_ip;

  NasMessage accept;
  accept.type = NasType::kPduSessionEstablishmentAccept;
  accept.set(NasIe::kPduSessionId, Bytes{session_id});
  accept.set(NasIe::kUeIp, to_bytes(*ue_ip));
  return protect_downlink(ctx, accept);
}

std::optional<Bytes> Amf::handle_uplink(std::uint64_t ran_ue_id,
                                        ByteView nas) {
  charge_nas(nas.size());
  UeContext& ctx = ues_[ran_ue_id];

  // Secured messages (post security-mode) first.
  if (!nas.empty() && nas[0] == 0x7f) {
    const auto sec = SecuredNas::decode(nas);
    if (!sec) return std::nullopt;
    crypto::OpMeter ops;
    const auto inner = sec->open(ctx.knas_int, ctx.knas_enc);
    env_.compute(ops.ns(bus_.costs().primitives));
    if (!inner || sec->count != ctx.ul_count) {
      S5G_LOG(LogLevel::kWarn, "amf") << "NAS integrity failure";
      return std::nullopt;
    }
    ++ctx.ul_count;
    switch (inner->type) {
      case NasType::kSecurityModeComplete:
        return on_security_mode_complete(ctx);
      case NasType::kRegistrationComplete:
        return std::nullopt;  // procedure done, no response
      case NasType::kPduSessionEstablishmentRequest:
        return on_pdu_session_request(ctx, *inner);
      case NasType::kDeregistrationRequest:
        return on_deregistration_request(ran_ue_id, ctx);
      default:
        return std::nullopt;
    }
  }

  const auto msg = NasMessage::decode(nas);
  if (!msg) return std::nullopt;
  switch (msg->type) {
    case NasType::kRegistrationRequest:
      return on_registration_request(ctx, *msg);
    case NasType::kIdentityResponse:
      return on_identity_response(ctx, *msg);
    case NasType::kAuthenticationResponse:
      return on_auth_response(ctx, *msg);
    case NasType::kAuthenticationFailure:
      return on_auth_failure(ctx, *msg);
    default:
      return std::nullopt;
  }
}


std::optional<Bytes> Amf::handle_ngap(ByteView ngap_wire) {
  const auto msg = NgapMessage::decode(ngap_wire);
  if (!msg) return std::nullopt;

  switch (msg->type) {
    case NgapType::kNgSetupRequest: {
      NgapMessage resp;
      if (msg->plmn == config_.plmn) {
        ++ng_setups_;
        resp.type = NgapType::kNgSetupResponse;
        resp.gnb_name = config_.name;
        S5G_LOG(LogLevel::kInfo, "amf")
            << "NG Setup from " << msg->gnb_name;
      } else {
        resp.type = NgapType::kNgSetupFailure;
        resp.cause = static_cast<std::uint8_t>(NasCause::kPlmnNotAllowed);
      }
      return resp.encode();
    }
    case NgapType::kInitialUeMessage: {
      if (!(msg->plmn == config_.plmn)) return std::nullopt;
      const std::uint64_t amf_ue_id = next_amf_ue_id_++;
      ran_to_amf_id_[msg->ran_ue_id] = amf_ue_id;
      const auto downlink = handle_uplink(msg->ran_ue_id, msg->nas_pdu);
      if (!downlink) return std::nullopt;
      return NgapMessage::downlink_nas(msg->ran_ue_id, amf_ue_id,
                                       *downlink)
          .encode();
    }
    case NgapType::kUplinkNasTransport: {
      const auto it = ran_to_amf_id_.find(msg->ran_ue_id);
      if (it == ran_to_amf_id_.end() || it->second != msg->amf_ue_id) {
        return std::nullopt;  // stale or forged UE association
      }
      const auto downlink = handle_uplink(msg->ran_ue_id, msg->nas_pdu);
      if (!downlink) return std::nullopt;
      return NgapMessage::downlink_nas(msg->ran_ue_id, msg->amf_ue_id,
                                       *downlink)
          .encode();
    }
    case NgapType::kUeContextReleaseCommand: {
      release_ue(msg->ran_ue_id);
      ran_to_amf_id_.erase(msg->ran_ue_id);
      NgapMessage resp;
      resp.type = NgapType::kUeContextReleaseComplete;
      resp.ran_ue_id = msg->ran_ue_id;
      return resp.encode();
    }
    default:
      return std::nullopt;
  }
}

}  // namespace shield5g::nf
