#include "crypto/key_hierarchy.h"

#include <stdexcept>

#include "crypto/kdf.h"
#include "crypto/sha256.h"

namespace shield5g::crypto {

std::string serving_network_name(const std::string& mcc,
                                 const std::string& mnc) {
  // MNC is zero-padded to three digits in the SNN (TS 24.501).
  std::string mnc3 = mnc;
  while (mnc3.size() < 3) mnc3.insert(mnc3.begin(), '0');
  return "5G:mnc" + mnc3 + ".mcc" + mcc + ".3gppnetwork.org";
}

SecretBytes derive_kausf(SecretView ck, SecretView ik, const std::string& snn,
                         ByteView sqn_xor_ak) {
  if (ck.size() != 16 || ik.size() != 16 || sqn_xor_ak.size() != 6) {
    throw std::invalid_argument("derive_kausf: bad sizes");
  }
  // CK || IK is itself key material: hold it in tainted storage so the
  // concat is zeroized on scope exit.
  const SecretBytes key(concat({ck.unsafe_bytes(), ik.unsafe_bytes()}));
  return SecretBytes(
      kdf(key, 0x6A,
          {{to_bytes(snn)}, {Bytes(sqn_xor_ak.begin(), sqn_xor_ak.end())}}));
}

Bytes derive_res_star(SecretView ck, SecretView ik, const std::string& snn,
                      ByteView rand, ByteView res) {
  if (ck.size() != 16 || ik.size() != 16 || rand.size() != 16) {
    throw std::invalid_argument("derive_res_star: bad sizes");
  }
  const SecretBytes key(concat({ck.unsafe_bytes(), ik.unsafe_bytes()}));
  return kdf_trunc128(key, 0x6B,
                      {{to_bytes(snn)},
                       {Bytes(rand.begin(), rand.end())},
                       {Bytes(res.begin(), res.end())}});
}

Bytes derive_hxres_star(ByteView rand, ByteView xres_star,
                        std::size_t out_len) {
  if (rand.size() != 16) {
    throw std::invalid_argument("derive_hxres_star: RAND size");
  }
  if (out_len > Sha256::kDigestSize) {
    throw std::invalid_argument("derive_hxres_star: out_len too long");
  }
  const Bytes digest = Sha256::digest(concat({rand, xres_star}));
  return take(digest, out_len);
}

SecretBytes derive_kseaf(SecretView kausf, const std::string& snn) {
  if (kausf.size() != 32) throw std::invalid_argument("derive_kseaf: size");
  return SecretBytes(kdf(kausf, 0x6C, {{to_bytes(snn)}}));
}

SecretBytes derive_kamf(SecretView kseaf, const std::string& supi,
                        ByteView abba) {
  if (kseaf.size() != 32 || abba.size() != 2) {
    throw std::invalid_argument("derive_kamf: bad sizes");
  }
  return SecretBytes(kdf(kseaf, 0x6D,
                         {{to_bytes(supi)}, {Bytes(abba.begin(), abba.end())}}));
}

SecretBytes derive_algo_key(SecretView kamf, AlgoType type,
                            std::uint8_t algo_id) {
  if (kamf.size() != 32) throw std::invalid_argument("derive_algo_key: size");
  return SecretBytes(kdf_trunc128(
      kamf, 0x69,
      {{Bytes{static_cast<std::uint8_t>(type)}}, {Bytes{algo_id}}}));
}

}  // namespace shield5g::crypto
