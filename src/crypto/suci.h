// SUPI concealment: SUCI construction and SIDF de-concealment
// (TS 33.501 §6.12, TS 23.003 §2.2B).
//
// A SUCI carries the PLMN in the clear plus the ECIES "scheme output"
// concealing the MSIN (the subscriber-specific part of the IMSI). The
// null scheme (scheme id 0) is also implemented because the paper's test
// PLMN 001/01 setup, like many lab cores, must interoperate with SIMs
// configured either way.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

enum class SuciScheme : std::uint8_t {
  kNull = 0,
  kProfileA = 1,  // X25519-based ECIES (the one we implement fully)
};

struct Suci {
  std::string mcc;             // 3 digits, in the clear
  std::string mnc;             // 2-3 digits, in the clear
  std::string routing_indicator = "0000";
  SuciScheme scheme = SuciScheme::kProfileA;
  std::uint8_t hn_key_id = 1;  // home-network public-key identifier
  Bytes scheme_output;         // concealed MSIN (or plain MSIN for null)

  /// Canonical textual form, e.g.
  /// "suci-0-001-01-0000-1-1-<hex scheme output>".
  std::string to_string() const;
  static std::optional<Suci> from_string(const std::string& s);
};

/// Conceals an IMSI-format SUPI ("<mcc><mnc><msin>").
/// For Profile A, `hn_public` is the home network X25519 public key and
/// `ephemeral_random` supplies 32 bytes of entropy.
Suci conceal_supi(const std::string& mcc, const std::string& mnc,
                  const std::string& msin, SuciScheme scheme,
                  ByteView hn_public, ByteView ephemeral_random);

/// Variant consuming a pregenerated ephemeral key pair from the
/// precompute pool (crypto/eph_pool.h): identical output for the same
/// ephemeral scalar, one scalar mult instead of two.
Suci conceal_supi(const std::string& mcc, const std::string& mnc,
                  const std::string& msin, SuciScheme scheme,
                  ByteView hn_public, const X25519KeyPair& ephemeral);

/// SIDF side: recovers the SUPI string "<mcc><mnc><msin>".
/// Returns nullopt on MAC failure or malformed scheme output.
/// The home-network private scalar is tainted.
std::optional<std::string> deconceal_suci(const Suci& suci,
                                          SecretView hn_private);

/// Packs decimal digits two-per-byte (TBCD-style, 0xf filler).
Bytes pack_digits(const std::string& digits);
std::string unpack_digits(ByteView packed, std::size_t digit_count);

}  // namespace shield5g::crypto
