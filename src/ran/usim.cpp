#include "ran/usim.h"

#include <stdexcept>

#include "crypto/milenage.h"
#include "nf/aka_core.h"

namespace shield5g::ran {

namespace {

crypto::Milenage make_milenage(const UsimConfig& config) {
  if (config.k.size() != 16 || config.opc.size() != 16) {
    throw std::invalid_argument("Usim: K and OPc must be 16 bytes");
  }
  return crypto::Milenage(config.k, config.opc);
}

}  // namespace

Usim::Usim(UsimConfig config)
    : config_(std::move(config)), milenage_(make_milenage(config_)) {}

crypto::Suci Usim::make_suci(ByteView ephemeral_random) const {
  crypto::Suci suci = crypto::conceal_supi(
      config_.plmn.mcc, config_.plmn.mnc, config_.msin, config_.suci_scheme,
      config_.hn_public, ephemeral_random);
  suci.hn_key_id = config_.hn_key_id;
  return suci;
}

crypto::Suci Usim::make_suci(const crypto::X25519KeyPair& ephemeral) const {
  crypto::Suci suci = crypto::conceal_supi(
      config_.plmn.mcc, config_.plmn.mnc, config_.msin, config_.suci_scheme,
      config_.hn_public, ephemeral);
  suci.hn_key_id = config_.hn_key_id;
  return suci;
}

AuthOutcome Usim::verify_challenge(ByteView rand, ByteView autn) {
  const auto fields = crypto::parse_autn(autn);
  auto out = milenage_.compute_f2345(rand);

  // Recover the network's SQN and check the MAC first.
  const Bytes sqn = xor_bytes(fields.sqn_xor_ak, out.ak);
  Bytes mac_a, mac_s;
  milenage_.compute_f1(rand, sqn, fields.amf, mac_a, mac_s);
  if (!ct_equal(mac_a, fields.mac_a)) {
    return AuthMacFailure{};
  }

  // Freshness: SQN must be ahead of SQNms but within the window.
  const std::uint64_t sqn_value = be_value(sqn);
  if (sqn_value <= config_.sqn_ms ||
      sqn_value - config_.sqn_ms > kSqnDelta) {
    const Bytes sqn_ms_bytes = be_bytes(config_.sqn_ms, 6);
    return AuthSyncFailure{nf::build_auts(milenage_, rand, sqn_ms_bytes)};
  }
  config_.sqn_ms = sqn_value;

  return AuthSuccess{out.res, std::move(out.ck), std::move(out.ik), sqn};
}

}  // namespace shield5g::ran
