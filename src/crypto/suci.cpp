#include "crypto/suci.h"

#include <sstream>
#include <stdexcept>

#include "common/hex.h"
#include "crypto/ecies.h"

namespace shield5g::crypto {

namespace {
bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// A SUCI's scheme id and Home Network Public Key Identifier: 1-3 plain
// decimal digits (no sign, no trailing junk) with a value up to `max`.
std::optional<int> small_field(const std::string& s, int max) {
  if (s.size() > 3 || !all_digits(s)) return std::nullopt;
  const int value = std::stoi(s);
  if (value > max) return std::nullopt;
  return value;
}
}  // namespace

Bytes pack_digits(const std::string& digits) {
  if (!all_digits(digits)) {
    throw std::invalid_argument("pack_digits: non-digit input");
  }
  Bytes out((digits.size() + 1) / 2);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const auto nibble = static_cast<std::uint8_t>(digits[i] - '0');
    if (i % 2 == 0) {
      out[i / 2] = nibble;
    } else {
      out[i / 2] = static_cast<std::uint8_t>(out[i / 2] | (nibble << 4));
    }
  }
  if (digits.size() % 2 == 1) {
    out.back() = static_cast<std::uint8_t>(out.back() | 0xf0);
  }
  return out;
}

std::string unpack_digits(ByteView packed, std::size_t digit_count) {
  if (packed.size() < (digit_count + 1) / 2) {
    throw std::invalid_argument("unpack_digits: buffer too short");
  }
  std::string out;
  out.reserve(digit_count);
  for (std::size_t i = 0; i < digit_count; ++i) {
    const std::uint8_t byte = packed[i / 2];
    const std::uint8_t nibble = (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
    if (nibble > 9) throw std::invalid_argument("unpack_digits: bad nibble");
    out.push_back(static_cast<char>('0' + nibble));
  }
  return out;
}

std::string Suci::to_string() const {
  std::ostringstream os;
  os << "suci-0-" << mcc << "-" << mnc << "-" << routing_indicator << "-"
     << static_cast<int>(scheme) << "-" << static_cast<int>(hn_key_id) << "-"
     << hex_encode(scheme_output);
  return os.str();
}

std::optional<Suci> Suci::from_string(const std::string& s) {
  std::istringstream is(s);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(is, field, '-')) fields.push_back(field);
  if (fields.size() != 8 || fields[0] != "suci" || fields[1] != "0") {
    return std::nullopt;
  }
  Suci suci;
  suci.mcc = fields[2];
  suci.mnc = fields[3];
  suci.routing_indicator = fields[4];
  // TS 23.003 §2.2B bounds the key identifier to 0..255.
  const auto scheme = small_field(fields[5], 1);
  const auto key_id = small_field(fields[6], 255);
  if (!scheme || !key_id) return std::nullopt;
  suci.scheme = static_cast<SuciScheme>(*scheme);
  suci.hn_key_id = static_cast<std::uint8_t>(*key_id);
  try {
    suci.scheme_output = hex_decode(fields[7]);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return suci;
}

namespace {
template <typename Ephemeral>
Suci conceal_supi_impl(const std::string& mcc, const std::string& mnc,
                       const std::string& msin, SuciScheme scheme,
                       ByteView hn_public, const Ephemeral& ephemeral) {
  if (!all_digits(mcc) || !all_digits(mnc) || !all_digits(msin)) {
    throw std::invalid_argument("conceal_supi: non-digit identifier");
  }
  Suci suci;
  suci.mcc = mcc;
  suci.mnc = mnc;
  suci.scheme = scheme;

  // The MSIN digit count must survive the round trip; prefix one byte.
  Bytes plaintext;
  plaintext.push_back(static_cast<std::uint8_t>(msin.size()));
  const Bytes packed = pack_digits(msin);
  plaintext.insert(plaintext.end(), packed.begin(), packed.end());

  switch (scheme) {
    case SuciScheme::kNull:
      suci.scheme_output = plaintext;
      break;
    case SuciScheme::kProfileA: {
      const EciesCiphertext ct = ecies_encrypt(hn_public, plaintext, ephemeral);
      suci.scheme_output = ct.serialize();
      break;
    }
  }
  return suci;
}
}  // namespace

Suci conceal_supi(const std::string& mcc, const std::string& mnc,
                  const std::string& msin, SuciScheme scheme,
                  ByteView hn_public, ByteView ephemeral_random) {
  return conceal_supi_impl(mcc, mnc, msin, scheme, hn_public,
                           ephemeral_random);
}

Suci conceal_supi(const std::string& mcc, const std::string& mnc,
                  const std::string& msin, SuciScheme scheme,
                  ByteView hn_public, const X25519KeyPair& ephemeral) {
  return conceal_supi_impl(mcc, mnc, msin, scheme, hn_public, ephemeral);
}

std::optional<std::string> deconceal_suci(const Suci& suci,
                                          SecretView hn_private) {
  Bytes plaintext;
  switch (suci.scheme) {
    case SuciScheme::kNull:
      plaintext = suci.scheme_output;
      break;
    case SuciScheme::kProfileA: {
      constexpr std::size_t kOverhead = kX25519KeySize + 8;
      if (suci.scheme_output.size() < kOverhead + 1) return std::nullopt;
      const std::size_t pt_len = suci.scheme_output.size() - kOverhead;
      EciesCiphertext ct;
      try {
        ct = EciesCiphertext::deserialize(suci.scheme_output, pt_len);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      auto decrypted = ecies_decrypt(hn_private, ct);
      // ct-audited(branch on AEAD authentication outcome; rejection is attacker-observable by protocol design)
      if (!decrypted) return std::nullopt;
      plaintext = std::move(*decrypted);
      break;
    }
  }
  if (plaintext.empty()) return std::nullopt;
  const std::size_t digit_count = plaintext[0];
  // ct-audited(digit_count is the deconcealed MSIN length; SUCI framing is public and a malformed length must be rejected)
  if (digit_count < 5 || digit_count > 15) return std::nullopt;
  try {
    const std::string msin =
        unpack_digits(ByteView(plaintext).subspan(1), digit_count);
    return suci.mcc + suci.mnc + msin;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace shield5g::crypto
