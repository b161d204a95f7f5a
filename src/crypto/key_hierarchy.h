// 5G key hierarchy (TS 33.501 Annex A).
//
// Implements the derivations the paper's P-AKA modules execute inside
// their enclaves (Table I): K_AUSF and AUTN inside eUDM, K_SEAF and
// HXRES* inside eAUSF, K_AMF inside eAMF — plus the downstream NAS
// keys needed to complete UE registration and the security-mode
// procedure end to end. Access-stratum security is not modelled, so no
// K_gNB is derived.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/secret.h"

namespace shield5g::crypto {

/// Serving-network-name string per TS 24.501 §9.12.1, e.g.
/// "5G:mnc001.mcc001.3gppnetwork.org" for PLMN 001/01.
std::string serving_network_name(const std::string& mcc,
                                 const std::string& mnc);

// Taint discipline: hierarchy keys (CK/IK in, K_AUSF/K_SEAF/K_AMF and
// the NAS keys out) are SecretView/SecretBytes. Protocol outputs
// that legitimately cross the wire — RES*, HXRES* — stay plain Bytes.

/// K_AUSF = KDF(CK || IK, FC=0x6A, SNN, SQN xor AK)      [A.2]
SecretBytes derive_kausf(SecretView ck, SecretView ik, const std::string& snn,
                         ByteView sqn_xor_ak);

/// (X)RES* = KDF(CK || IK, FC=0x6B, SNN, RAND, RES)[16..31]  [A.4]
Bytes derive_res_star(SecretView ck, SecretView ik, const std::string& snn,
                      ByteView rand, ByteView res);

/// HXRES* = SHA-256(RAND || XRES*) most-significant bits   [A.5]
/// `out_len` defaults to the standard 16 bytes; the paper's modules
/// exchange an 8-byte HXRES* (Table I), so callers may truncate.
Bytes derive_hxres_star(ByteView rand, ByteView xres_star,
                        std::size_t out_len = 16);

/// K_SEAF = KDF(K_AUSF, FC=0x6C, SNN)                     [A.6]
SecretBytes derive_kseaf(SecretView kausf, const std::string& snn);

/// K_AMF = KDF(K_SEAF, FC=0x6D, SUPI, ABBA)               [A.7]
SecretBytes derive_kamf(SecretView kseaf, const std::string& supi,
                        ByteView abba);

/// Algorithm-type distinguishers for A.8.
enum class AlgoType : std::uint8_t {
  kNasEnc = 0x01,
  kNasInt = 0x02,
  kRrcEnc = 0x03,
  kRrcInt = 0x04,
  kUpEnc = 0x05,
  kUpInt = 0x06,
};

/// Algorithm key = KDF(K_AMF, FC=0x69, type, id), truncated to 128 bits.
SecretBytes derive_algo_key(SecretView kamf, AlgoType type,
                            std::uint8_t algo_id);

}  // namespace shield5g::crypto
