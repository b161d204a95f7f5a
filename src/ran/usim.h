// USIM model: the UE-side half of 5G-AKA.
//
// Runs MILENAGE against the challenge, enforces the SQN freshness window
// (producing an AUTS for resynchronisation on failure, TS 33.102 §6.3.3)
// and conceals the SUPI into a SUCI against the home-network public key.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/milenage.h"
#include "crypto/suci.h"
#include "nf/types.h"

namespace shield5g::ran {

struct UsimConfig {
  nf::Plmn plmn;
  std::string msin;   // subscriber-specific digits
  SecretBytes k;      // 16 — burned-in long-term key
  SecretBytes opc;    // 16 — burned-in operator code
  std::uint64_t sqn_ms = 0;  // highest accepted sequence number
  crypto::SuciScheme suci_scheme = crypto::SuciScheme::kProfileA;
  Bytes hn_public;   // home-network ECIES public key (Profile A)
  std::uint8_t hn_key_id = 1;
};

/// Successful challenge verification: RES and the session keys.
struct AuthSuccess {
  Bytes res;       // 8
  SecretBytes ck;  // 16
  SecretBytes ik;  // 16
  Bytes sqn;       // 6 — the accepted network SQN
};

/// MAC-A did not verify: the network (or an attacker) failed f1.
struct AuthMacFailure {};

/// SQN outside the acceptance window: carry AUTS for resync.
struct AuthSyncFailure {
  Bytes auts;  // 14
};

using AuthOutcome =
    std::variant<AuthSuccess, AuthMacFailure, AuthSyncFailure>;

class Usim {
 public:
  explicit Usim(UsimConfig config);

  const UsimConfig& config() const noexcept { return config_; }
  std::string supi() const { return config_.plmn.id() + config_.msin; }
  std::uint64_t sqn_ms() const noexcept { return config_.sqn_ms; }

  /// Override the stored SQN (used by tests to force a sync failure).
  void set_sqn_ms(std::uint64_t sqn) noexcept { config_.sqn_ms = sqn; }

  /// Builds the SUCI for a registration attempt. `ephemeral_random`
  /// supplies the 32 ECIES ephemeral bytes.
  crypto::Suci make_suci(ByteView ephemeral_random) const;

  /// Variant consuming a pregenerated ephemeral key pair (from the
  /// precompute pool): one scalar mult instead of two.
  crypto::Suci make_suci(const crypto::X25519KeyPair& ephemeral) const;

  /// Verifies a (RAND, AUTN) challenge per TS 33.102 §6.3.3.
  AuthOutcome verify_challenge(ByteView rand, ByteView autn);

  /// SQN acceptance window width (delta in TS 33.102 Annex C.2.1).
  static constexpr std::uint64_t kSqnDelta = 1ULL << 28;

 private:
  UsimConfig config_;
  // Persistent MILENAGE context: K and OPc are burned in, so the AES
  // schedule is expanded once per USIM, not once per challenge.
  crypto::Milenage milenage_;
};

}  // namespace shield5g::ran
