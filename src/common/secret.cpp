#include "common/secret.h"

#include <array>
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

namespace {

// The audit's counter names, one row per reason, built once from the
// reason slugs so a declassify bumps its counter without building one.
struct ReasonCounters {
  std::string denied, shielded, host;
};

const ReasonCounters& reason_counters(DeclassifyReason reason) {
  constexpr std::size_t kReasons =
      static_cast<std::size_t>(DeclassifyReason::kTestVector) + 1;
  // Leaked on purpose, like the counter registry it feeds.
  static const auto* table = [] {
    auto* rows = new std::array<ReasonCounters, kReasons>;
    for (std::size_t i = 0; i < kReasons; ++i) {
      const std::string name =
          declassify_reason_name(static_cast<DeclassifyReason>(i));
      (*rows)[i] = {"secret.declassify.denied." + name,
                    "secret.declassify." + name + ".shielded",
                    "secret.declassify." + name + ".host"};
    }
    return rows;
  }();
  return (*table)[static_cast<std::size_t>(reason)];
}

}  // namespace

namespace detail {

Bytes declassify_copy(ByteView data, DeclassifyReason reason,
                      const sgx::EnclaveContext* ctx) {
  const ReasonCounters& counters = reason_counters(reason);
  const bool shielded = ctx != nullptr && ctx->enclave_backed();
  if (declassify_requires_enclave(reason) && !shielded) {
    counter_add("secret.declassify.denied");
    counter_add(counters.denied);
    const std::string name = declassify_reason_name(reason);
    throw std::logic_error(
        "declassify(" + name + "): enclave-grade declassification outside "
        "an enclave-backed deployment" +
        (ctx != nullptr ? " (module " + ctx->module() + ")" : ""));
  }
  counter_add(shielded ? counters.shielded : counters.host);
  return Bytes(data.begin(), data.end());
}

}  // namespace detail

}  // namespace shield5g
