#include "common/secret.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/stats.h"
#include "sgx/enclave_context.h"

namespace shield5g {

void secure_zero(void* p, std::size_t n) noexcept {
  // An empty SecretBytes passes a null pointer, and memset on a null
  // pointer is undefined even for zero bytes.
  if (n == 0) return;
  std::memset(p, 0, n);
  // A memset into a buffer that is freed next is a dead store the
  // optimizer may drop. The empty asm takes `p` as an input and
  // clobbers memory, so the compiler must assume the zeroed bytes are
  // read through `p` afterwards, even when this call is inlined.
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

const char* declassify_reason_name(DeclassifyReason reason) noexcept {
  switch (reason) {
    case DeclassifyReason::kTransport:
      return "transport";
    case DeclassifyReason::kProvisioning:
      return "provisioning";
    case DeclassifyReason::kUnseal:
      return "unseal";
    case DeclassifyReason::kProtocolOutput:
      return "protocol_output";
    case DeclassifyReason::kTestVector:
      return "test_vector";
  }
  return "unknown";
}

bool declassify_requires_enclave(DeclassifyReason reason) noexcept {
  return reason == DeclassifyReason::kUnseal;
}

namespace detail {

Bytes declassify_copy(ByteView data, DeclassifyReason reason,
                      const sgx::EnclaveContext* ctx) {
  const std::string name = declassify_reason_name(reason);
  const bool shielded = ctx != nullptr && ctx->enclave_backed();
  if (declassify_requires_enclave(reason) && !shielded) {
    counter_add("secret.declassify.denied");
    counter_add("secret.declassify.denied." + name);
    throw std::logic_error(
        "declassify(" + name + "): enclave-grade declassification outside "
        "an enclave-backed deployment" +
        (ctx != nullptr ? " (module " + ctx->module() + ")" : ""));
  }
  counter_add("secret.declassify." + name +
              (shielded ? ".shielded" : ".host"));
  return Bytes(data.begin(), data.end());
}

}  // namespace detail

}  // namespace shield5g
