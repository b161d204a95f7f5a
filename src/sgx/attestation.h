// Remote attestation (paper §VI, KIs 11/12/13).
//
// Models the quote flow: an initialized enclave produces a Quote binding
// its measurement to caller-chosen report data; a verifier that trusts
// the platform's attestation key (standing in for Intel's EPID/DCAP
// infrastructure) checks the quote and the expected measurement. The
// slice orchestrator uses this to verify P-AKA module integrity before
// admitting them into the AKA service chain.
#pragma once

#include "common/bytes.h"
#include "sgx/enclave.h"

namespace shield5g::sgx {

struct Quote {
  Bytes measurement;  // MRENCLAVE of the quoted enclave
  Bytes report_data;  // 64 bytes chosen by the enclave (e.g. TLS key hash)
  Bytes signature;    // platform attestation signature
};

/// EREPORT + quoting-enclave analogue: produces a signed quote.
Quote generate_quote(Enclave& enclave, ByteView report_data);

/// The verifying side: stands in for the attestation service that knows
/// the platform's provisioned key material.
class AttestationVerifier {
 public:
  explicit AttestationVerifier(Bytes attestation_key)
      : attestation_key_(std::move(attestation_key)) {}

  /// Signature check only.
  bool verify_signature(const Quote& quote) const;

  /// Full policy check: valid signature AND the expected measurement.
  bool verify(const Quote& quote, ByteView expected_measurement) const;

 private:
  Bytes attestation_key_;
};

}  // namespace shield5g::sgx
