// The 5G-AKA home-environment computations (TS 33.501 §6.1.3.2).
//
// This is the sensitive math the paper extracts into the P-AKA enclaves:
// MILENAGE f1/f2345, AUTN assembly, XRES*/K_AUSF derivation (eUDM),
// HXRES*/K_SEAF derivation (eAUSF) and K_AMF derivation (eAMF). The same
// functions back the monolithic in-VNF baseline, the container-isolated
// modules and the SGX-isolated modules, so all three deployments are
// bit-identical in their outputs.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/milenage.h"
#include "nf/types.h"

namespace shield5g::nf {

/// UDM-side: generates the HE AV for one (K, OPc, RAND, SQN, AMF) tuple.
/// K and OPc are the tainted long-term credentials.
HeAv generate_he_av(SecretView k, SecretView opc, ByteView rand,
                    ByteView sqn6, ByteView amf_field, const std::string& snn);

/// AUSF-side: HXRES* (paper's 8-byte form) and K_SEAF.
struct SeDerivation {
  Bytes hxres_star;    // kHxresStarBytes — protocol output
  SecretBytes kseaf;   // 32 — anchor key, tainted
};
SeDerivation derive_se(ByteView rand, ByteView xres_star, SecretView kausf,
                       const std::string& snn);

/// AMF-side: K_AMF from K_SEAF.
SecretBytes derive_kamf_for(SecretView kseaf, const std::string& supi);

/// Resynchronisation (TS 33.102 §6.3.5): verifies AUTS = (SQNms xor AK*)
/// || MAC-S against f1*/f5* and recovers SQNms. Returns nullopt when
/// MAC-S does not verify.
std::optional<Bytes> resync_verify(SecretView k, SecretView opc,
                                   ByteView rand, ByteView auts);

/// UE-side helper shared with the USIM model: AUTS construction.
Bytes build_auts(SecretView k, SecretView opc, ByteView rand,
                 ByteView sqn_ms);
Bytes build_auts(const crypto::Milenage& milenage, ByteView rand,
                 ByteView sqn_ms);

}  // namespace shield5g::nf
