// Shared control-plane vocabulary: identifiers, subscriber records and
// authentication vectors (TS 23.003, TS 33.501).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/secret.h"

namespace shield5g::nf {

struct Plmn {
  std::string mcc = "001";  // paper's OTA test PLMN 001/01
  std::string mnc = "01";

  std::string id() const { return mcc + mnc; }
  bool operator==(const Plmn&) const = default;
};

/// SUPI in IMSI format: "<mcc><mnc><msin>".
struct Supi {
  std::string value;

  static Supi from_parts(const Plmn& plmn, const std::string& msin) {
    return Supi{plmn.mcc + plmn.mnc + msin};
  }
  bool operator==(const Supi&) const = default;
  auto operator<=>(const Supi&) const = default;
};

/// 5G-GUTI: PLMN + AMF identifiers + 32-bit TMSI.
struct Guti {
  Plmn plmn;
  std::uint8_t amf_region = 1;
  std::uint16_t amf_set = 1;
  std::uint32_t tmsi = 0;

  std::string to_string() const;
  bool operator==(const Guti&) const = default;
};

/// AMF authentication field a subscriber is provisioned with unless the
/// operator sets one (TS 33.102): the separation bit set, nothing else.
inline constexpr std::array<std::uint8_t, 2> kDefaultAmfField = {0x80, 0x00};

/// UDR-side subscriber credential record. The long-term key K is stored
/// here for the monolithic / container baselines; in the SGX deployment
/// the eUDM P-AKA module receives the K table as a sealed blob at
/// provisioning time and the per-request flow carries only the Table I
/// parameters (OPc, RAND, SQN, AMFid).
struct SubscriberRecord {
  Supi supi;
  SecretBytes k;    // 16 bytes — long-term subscriber key
  SecretBytes opc;  // 16 bytes — derived operator code
  std::uint64_t sqn = 0;      // 48-bit sequence number
  Bytes amf_field = Bytes(kDefaultAmfField.begin(), kDefaultAmfField.end());

  Bytes sqn_bytes() const { return be_bytes(sqn, 6); }
};

/// Home-environment authentication vector (UDM -> AUSF, paper Fig. 5).
/// RAND/AUTN/XRES* are protocol material; K_AUSF is tainted and only
/// crosses the UDM->AUSF SBI hop via an audited kTransport declassify.
struct HeAv {
  Bytes rand;          // 16
  Bytes autn;          // 16
  Bytes xres_star;     // 16
  SecretBytes kausf;   // 32
};

/// Security-edge authentication vector (AUSF -> AMF).
struct SeAv {
  Bytes rand;        // 16
  Bytes autn;        // 16
  Bytes hxres_star;  // 8 (paper Table I; the spec's 16-byte value
                     // truncated consistently on both sides)
};

/// HXRES*/HRES* length used by the paper's modules (Table I).
inline constexpr std::size_t kHxresStarBytes = 8;

/// ABBA parameter (TS 33.501 A.7.1): 0x0000 for this release.
inline const Bytes kAbba = {0x00, 0x00};

}  // namespace shield5g::nf
