#include "nf/aka_core.h"

#include <stdexcept>

#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"

namespace shield5g::nf {

namespace {
// The AMF field used for resynchronisation is all-zero (TS 33.102).
const Bytes kResyncAmf = {0x00, 0x00};
}  // namespace

HeAv generate_he_av(SecretView k, SecretView opc, ByteView rand,
                    ByteView sqn6, ByteView amf_field,
                    const std::string& snn) {
  const auto out = crypto::Milenage(k, opc).compute(rand, sqn6, amf_field);

  HeAv av;
  av.rand = Bytes(rand.begin(), rand.end());
  av.autn = crypto::build_autn(sqn6, out.ak, amf_field, out.mac_a);
  av.xres_star =
      crypto::derive_res_star(out.ck, out.ik, snn, rand, out.res);
  const Bytes sqn_xor_ak = xor_bytes(sqn6, out.ak);
  av.kausf = crypto::derive_kausf(out.ck, out.ik, snn, sqn_xor_ak);
  return av;
}

SeDerivation derive_se(ByteView rand, ByteView xres_star, SecretView kausf,
                       const std::string& snn) {
  SeDerivation out;
  out.hxres_star =
      crypto::derive_hxres_star(rand, xres_star, kHxresStarBytes);
  out.kseaf = crypto::derive_kseaf(kausf, snn);
  return out;
}

SecretBytes derive_kamf_for(SecretView kseaf, const std::string& supi) {
  return crypto::derive_kamf(kseaf, supi, kAbba);
}

std::optional<Bytes> resync_verify(SecretView k, SecretView opc,
                                   ByteView rand, ByteView auts) {
  if (auts.size() != 14) return std::nullopt;
  const crypto::Milenage milenage(k, opc);
  const auto out = milenage.compute_f2345(rand);

  const Bytes sqn_ms = xor_bytes(take(auts, 6), out.ak_s);
  Bytes mac_s, mac_a;
  milenage.compute_f1(rand, sqn_ms, kResyncAmf, mac_a, mac_s);
  if (!ct_equal(mac_s, slice_bytes(auts, 6, 8))) return std::nullopt;
  return sqn_ms;
}

Bytes build_auts(SecretView k, SecretView opc, ByteView rand,
                 ByteView sqn_ms) {
  return build_auts(crypto::Milenage(k, opc), rand, sqn_ms);
}

Bytes build_auts(const crypto::Milenage& milenage, ByteView rand,
                 ByteView sqn_ms) {
  const auto out = milenage.compute_f2345(rand);
  Bytes mac_a, mac_s;
  milenage.compute_f1(rand, sqn_ms, kResyncAmf, mac_a, mac_s);
  const Bytes concealed = xor_bytes(sqn_ms, out.ak_s);
  return concat({ByteView(concealed), ByteView(mac_s)});
}

}  // namespace shield5g::nf
