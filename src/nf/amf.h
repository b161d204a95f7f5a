// Access and Mobility Management Function: terminates NAS signaling,
// drives 5G-AKA against the AUSF, runs the Security Mode procedure and
// anchors PDU session establishment at the SMF (paper §II-A, Fig. 5).
//
// The gNB delivers uplink NAS PDUs through handle_uplink(); the returned
// bytes are the downlink NAS response (absent when no response is due).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "nf/nas.h"
#include "nf/ngap.h"
#include "nf/types.h"
#include "nf/udm.h"
#include "nf/vnf.h"

namespace shield5g::nf {

struct AmfConfig {
  std::string name = "amf";
  std::string ausf_service = "ausf";
  std::string smf_service = "smf";
  std::string eamf_service = "eamf-aka";
  AkaDeployment deployment = AkaDeployment::kExternal;
  Plmn plmn;
};

enum class UeState {
  kDeregistered,
  kIdentityPending,  // Identity Request sent (unknown GUTI)
  kAuthenticating,
  kSecurityMode,
  kRegistered,
};

class Amf : public Vnf {
 public:
  Amf(net::Bus& bus, AmfConfig config);

  const AmfConfig& config() const noexcept { return config_; }

  /// N1: one uplink NAS PDU in, at most one downlink NAS PDU out.
  std::optional<Bytes> handle_uplink(std::uint64_t ran_ue_id, ByteView nas);

  /// N2: one NGAP PDU in, at most one NGAP PDU out. Handles NG Setup
  /// (with PLMN admission), the NAS transport procedures (allocating
  /// AMF UE NGAP IDs) and UE context release.
  std::optional<Bytes> handle_ngap(ByteView ngap_wire);

  std::uint64_t ng_setups() const noexcept { return ng_setups_; }

  /// Introspection for tests and benches.
  UeState ue_state(std::uint64_t ran_ue_id) const;
  std::optional<std::string> ue_supi(std::uint64_t ran_ue_id) const;
  std::uint64_t registrations_completed() const noexcept {
    return registrations_;
  }
  std::uint64_t resyncs() const noexcept { return resyncs_; }
  /// Re-registrations resolved from a known GUTI (no fresh AKA run).
  std::uint64_t guti_reregistrations() const noexcept {
    return guti_reregistrations_;
  }
  std::uint64_t identity_requests() const noexcept {
    return identity_requests_;
  }
  std::uint64_t deregistrations() const noexcept { return deregistrations_; }

  /// Releases a UE context (deregistration / RAN release).
  void release_ue(std::uint64_t ran_ue_id);

  /// Drops all UE and GUTI state (AMF restart / failover): returning
  /// UEs with stale GUTIs are sent through the Identity Request path.
  void flush_contexts();

 private:
  struct UeContext {
    UeState state = UeState::kDeregistered;
    std::string suci;
    Supi supi;
    std::string auth_ctx_id;
    Bytes rand;
    Bytes hxres_star;
    SecretBytes kseaf;
    SecretBytes kamf;
    SecretBytes knas_int;
    SecretBytes knas_enc;
    std::uint32_t dl_count = 0;
    std::uint32_t ul_count = 0;
    std::uint8_t ngksi = 0;
    Guti guti;
    std::uint8_t auth_attempts = 0;
    std::map<std::uint8_t, std::string> pdu_sessions;  // id -> UE IP
  };

  /// Saved security context for GUTI-based re-registration.
  struct StoredContext {
    Supi supi;
    SecretBytes kamf;
    SecretBytes knas_int;
    SecretBytes knas_enc;
  };

  std::optional<Bytes> start_authentication(UeContext& ctx);
  std::optional<Bytes> on_registration_request(UeContext& ctx,
                                               const NasMessage& msg);
  std::optional<Bytes> on_identity_response(UeContext& ctx,
                                            const NasMessage& msg);
  std::optional<Bytes> on_auth_response(UeContext& ctx,
                                        const NasMessage& msg);
  std::optional<Bytes> on_auth_failure(UeContext& ctx, const NasMessage& msg);
  std::optional<Bytes> on_security_mode_complete(UeContext& ctx);
  std::optional<Bytes> on_pdu_session_request(UeContext& ctx,
                                              const NasMessage& msg);
  std::optional<Bytes> on_deregistration_request(std::uint64_t ran_ue_id,
                                                 UeContext& ctx);
  Bytes send_security_mode_command(UeContext& ctx);

  /// Downlink protection: integrity-only for the Security Mode Command,
  /// ciphered + integrity for everything after.
  Bytes protect_downlink(UeContext& ctx, const NasMessage& msg,
                         bool cipher = true);
  void charge_nas(std::size_t bytes);

  AmfConfig config_;
  std::string snn_;  // serving network name, derived from the PLMN
  std::map<std::uint64_t, UeContext> ues_;
  std::map<std::string, StoredContext> guti_contexts_;
  std::map<std::uint64_t, std::uint64_t> ran_to_amf_id_;
  std::uint64_t next_amf_ue_id_ = 0x100;
  std::uint64_t ng_setups_ = 0;
  std::uint32_t next_tmsi_ = 0x1000;
  std::uint64_t registrations_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t guti_reregistrations_ = 0;
  std::uint64_t identity_requests_ = 0;
  std::uint64_t deregistrations_ = 0;
};

}  // namespace shield5g::nf
