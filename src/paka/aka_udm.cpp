#include "paka/aka_udm.h"

#include "common/log.h"
#include "nf/aka_core.h"
#include "nf/sbi.h"

namespace shield5g::paka {

EudmAkaService::EudmAkaService(sgx::Machine& machine, net::Bus& bus,
                               PakaOptions options, const std::string& name)
    : PakaService(name, machine, bus, options) {}

void EudmAkaService::provision_key(const nf::Supi& supi, SecretBytes k) {
  keys_[supi] = std::move(k);
}

Bytes EudmAkaService::serialize_key_table(
    const std::map<nf::Supi, SecretBytes>& keys,
    const sgx::EnclaveContext* ctx) {
  Bytes out;
  const Bytes count = be_bytes(keys.size(), 4);
  out.insert(out.end(), count.begin(), count.end());
  for (const auto& [supi, k] : keys) {
    const Bytes len = be_bytes(supi.value.size(), 2);
    out.insert(out.end(), len.begin(), len.end());
    const Bytes id = to_bytes(supi.value);
    out.insert(out.end(), id.begin(), id.end());
    const Bytes raw = k.declassify(DeclassifyReason::kProvisioning, ctx);
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

bool EudmAkaService::provision_sealed(const sgx::SealedBlob& blob) {
  if (runtime() == nullptr || !runtime()->booted()) return false;
  auto plain = sgx::unseal(runtime()->enclave(), blob);
  if (!plain) {
    S5G_LOG(LogLevel::kWarn, "eudm-aka") << "sealed key table rejected";
    return false;
  }
  // The unsealed table is long-term key material: re-exposing it for
  // parsing is enclave-grade declassification (KI 27) and would throw
  // against anything but this module's enclave-backed context.
  const SecretBytes table(std::move(*plain));
  const Bytes raw =
      table.declassify(DeclassifyReason::kUnseal, secret_ctx());
  // Deserialize: [count u32] { [len u16][supi][16-byte K] }*
  const ByteView data(raw);
  if (data.size() < 4) return false;
  const std::uint64_t count = be_value(data.subspan(0, 4));
  std::size_t pos = 4;
  std::map<nf::Supi, SecretBytes> parsed;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (pos + 2 > data.size()) return false;
    const std::uint64_t len = be_value(data.subspan(pos, 2));
    pos += 2;
    if (pos + len + 16 > data.size()) return false;
    const std::string supi = to_string(data.subspan(pos, len));
    pos += len;
    parsed[nf::Supi{supi}] = SecretBytes(slice_bytes(data, pos, 16));
    pos += 16;
  }
  if (pos != data.size()) return false;
  keys_ = std::move(parsed);
  return true;
}

void EudmAkaService::register_routes() {
  auto& router = server().router();

  // f1 + f2345 + K_AUSF + AUTN (Table I row "UDM").
  router.add(
      net::Method::kPost, "/paka/v1/generate-av",
      [this](const net::RequestView& req, const net::PathParams&) {
        const auto body = nf::parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        const auto supi = body->get_string("supi");
        const auto opc = nf::secret_hex_bytes(*body, "opc");
        const auto rand = nf::hex_bytes(*body, "rand");
        const auto sqn = nf::hex_bytes(*body, "sqn");
        const auto amf_id = nf::hex_bytes(*body, "amfId");
        const auto snn = body->get_string("snn");
        if (!supi || !opc || opc->size() != 16 || !rand ||
            rand->size() != 16 || !sqn || sqn->size() != 6 || !amf_id ||
            amf_id->size() != 2 || !snn) {
          return net::HttpResponse::error(400, "bad AV parameters");
        }
        const auto key = keys_.find(nf::Supi{*supi});
        if (key == keys_.end()) {
          return net::HttpResponse::error(404, "no key material for SUPI");
        }
        const nf::HeAv av = nf::generate_he_av(key->second, *opc, *rand,
                                               *sqn, *amf_id, *snn);
        json::Object out;
        out["rand"] = nf::hex_field(av.rand);
        out["autn"] = nf::hex_field(av.autn);
        out["xresStar"] = nf::hex_field(av.xres_star);
        // K_AUSF leaves the module for the AUSF: audited transport
        // declassification, counted as shielded under SGX isolation.
        out["kausf"] = nf::secret_hex_field(
            av.kausf, DeclassifyReason::kTransport, secret_ctx());
        return net::HttpResponse::json(200, json::Value(out).dump());
      });

  // f1* / f5* resynchronisation verification.
  router.add(
      net::Method::kPost, "/paka/v1/resync",
      [this](const net::RequestView& req, const net::PathParams&) {
        const auto body = nf::parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        const auto supi = body->get_string("supi");
        const auto opc = nf::secret_hex_bytes(*body, "opc");
        const auto rand = nf::hex_bytes(*body, "rand");
        const auto auts = nf::hex_bytes(*body, "auts");
        if (!supi || !opc || !rand || !auts) {
          return net::HttpResponse::error(400, "bad resync parameters");
        }
        const auto key = keys_.find(nf::Supi{*supi});
        if (key == keys_.end()) {
          return net::HttpResponse::error(404, "no key material for SUPI");
        }
        const auto sqn_ms =
            nf::resync_verify(key->second, *opc, *rand, *auts);
        if (!sqn_ms) {
          return net::HttpResponse::error(403, "MAC-S verification failed");
        }
        json::Object out;
        out["sqnMs"] = nf::hex_field(*sqn_ms);
        return net::HttpResponse::json(200, json::Value(out).dump());
      });

  router.add(net::Method::kGet, "/paka/v1/health",
             [](const net::RequestView&, const net::PathParams&) {
               return net::HttpResponse::json(200, "{\"status\":\"ok\"}");
             });
}

}  // namespace shield5g::paka
