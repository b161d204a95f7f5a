#include "sgx/attestation.h"

#include <stdexcept>

#include "crypto/hmac_sha256.h"
#include "sgx/machine.h"

namespace shield5g::sgx {

namespace {
Bytes quote_signing_input(ByteView measurement, ByteView report_data) {
  return concat({to_bytes("sgx-quote-v1"), measurement, report_data});
}
}  // namespace

Quote generate_quote(Enclave& enclave, ByteView report_data) {
  if (report_data.size() > 64) {
    throw std::invalid_argument("generate_quote: report data > 64 bytes");
  }
  Quote quote;
  quote.measurement = enclave.measurement();
  quote.report_data = Bytes(report_data.begin(), report_data.end());
  quote.signature = crypto::hmac_sha256(
      enclave.machine().attestation_key(),
      quote_signing_input(quote.measurement, quote.report_data));
  return quote;
}

bool AttestationVerifier::verify_signature(const Quote& quote) const {
  const Bytes expected = crypto::hmac_sha256(
      attestation_key_,
      quote_signing_input(quote.measurement, quote.report_data));
  return ct_equal(expected, quote.signature);
}

bool AttestationVerifier::verify(const Quote& quote,
                                 ByteView expected_measurement) const {
  return verify_signature(quote) &&
         ct_equal(quote.measurement, expected_measurement);
}

}  // namespace shield5g::sgx
