#include "nf/udm.h"

#include "common/log.h"
#include "crypto/suci.h"
#include "nf/aka_core.h"
#include "nf/sbi.h"

namespace shield5g::nf {

Udm::Udm(net::Bus& bus, UdmConfig config)
    : Vnf(config.name, bus),
      config_(std::move(config)),
      rand_rng_(config_.rand_seed) {
  register_routes();
}

std::optional<Supi> Udm::resolve_identity(const json::Value& body) {
  if (const auto supi = body.get_string("supi")) return Supi{*supi};
  const auto suci_str = body.get_string("suci");
  if (!suci_str) return std::nullopt;
  const auto suci = crypto::Suci::from_string(*suci_str);
  if (!suci) return std::nullopt;
  // SIDF key selection (TS 33.501 §6.12.2): the SUCI names the home
  // network key it was concealed to; an unknown identifier is refused
  // before any private-key work.
  if (suci->scheme != crypto::SuciScheme::kNull &&
      suci->hn_key_id != config_.hn_key_id) {
    return std::nullopt;
  }
  // SIDF: the ECIES private-key operation executes for real and its
  // primitive costs land in this handler's L_F via the op counters.
  const auto supi =
      crypto::deconceal_suci(*suci, config_.hn_key.private_key);
  if (!supi) return std::nullopt;
  return Supi{*supi};
}

void Udm::register_routes() {
  auto& router = server_.router();

  // Nudm_UEAuthentication_Get: generate the HE AV.
  router.add(
      net::Method::kPost, "/nudm-ueau/v1/generate-auth-data",
      [this](const net::RequestView& req, const net::PathParams&) {
        const auto body = parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        const auto snn = body->get_string("servingNetworkName");
        if (!snn) return net::HttpResponse::error(400, "missing SNN");
        if (!body->has("suci") && !body->has("supi")) {
          return net::HttpResponse::error(400, "missing identity");
        }
        const auto supi = resolve_identity(*body);
        if (!supi) {
          return net::HttpResponse::error(403, "SUCI de-concealment failed");
        }

        // Credentials + fresh SQN from the UDR.
        auto sub = call(config_.udr_service,
                        sbi_get("/nudr-dr/v1/subscription-data/" +
                                supi->value + "/authentication-subscription"));
        if (sub.response.status != 200) {
          return net::HttpResponse::error(404, "unknown subscriber");
        }
        auto adv = call(config_.udr_service,
                        json_post("/nudr-dr/v1/subscription-data/" +
                                      supi->value + "/sqn-advance",
                                  json::Value(json::Object{})));
        if (adv.response.status != 200) {
          return net::HttpResponse::error(500, "SQN advance failed");
        }
        const auto sub_body = parse_body(sub.response.body);
        const auto adv_body = parse_body(adv.response.body);
        if (!sub_body || !adv_body) {
          return net::HttpResponse::error(500, "bad UDR payload");
        }
        const auto opc = secret_hex_bytes(*sub_body, "opc");
        const auto amf_field = hex_bytes(*sub_body, "amfField");
        const auto sqn = hex_bytes(*adv_body, "sqn");
        if (!opc || !amf_field || !sqn) {
          return net::HttpResponse::error(500, "incomplete UDR record");
        }

        const Bytes rand = rand_rng_.bytes(16);
        HeAv av;
        if (config_.deployment == AkaDeployment::kExternal) {
          // Offload to the eUDM P-AKA module with the Table I inputs
          // (OPc, RAND, SQN, AMFid); the long-term key K stays inside
          // the module (sealed), so it is never on this path.
          json::Object paka;
          paka["supi"] = supi->value;
          paka["opc"] = secret_hex_field(*opc, DeclassifyReason::kTransport,
                                         secret_ctx());
          paka["rand"] = hex_field(rand);
          paka["sqn"] = hex_field(*sqn);
          paka["amfId"] = hex_field(*amf_field);
          paka["snn"] = *snn;
          auto gen = call(next_eudm(),
                          json_post("/paka/v1/generate-av",
                                    json::Value(std::move(paka))));
          if (gen.response.status != 200) {
            return net::HttpResponse::error(500, "eUDM P-AKA failure");
          }
          const auto gen_body = parse_body(gen.response.body);
          if (!gen_body) return net::HttpResponse::error(500, "bad P-AKA");
          const auto r = hex_bytes(*gen_body, "rand");
          const auto autn = hex_bytes(*gen_body, "autn");
          const auto xres = hex_bytes(*gen_body, "xresStar");
          auto kausf = secret_hex_bytes(*gen_body, "kausf");
          if (!r || !autn || !xres || !kausf) {
            return net::HttpResponse::error(500, "incomplete P-AKA output");
          }
          av = HeAv{*r, *autn, *xres, std::move(*kausf)};
        } else {
          const auto k = secret_hex_bytes(*sub_body, "k");
          if (!k) return net::HttpResponse::error(500, "no key material");
          av = generate_he_av(*k, *opc, rand, *sqn, *amf_field, *snn);
        }
        ++av_count_;

        json::Object out;
        out["supi"] = supi->value;
        out["rand"] = hex_field(av.rand);
        out["autn"] = hex_field(av.autn);
        out["xresStar"] = hex_field(av.xres_star);
        out["kausf"] = secret_hex_field(av.kausf, DeclassifyReason::kTransport,
                                        secret_ctx());
        return net::HttpResponse::json(200, json::Value(out).dump());
      });

  // Nudm_UEAuthentication_ResultConfirmation.
  router.add(net::Method::kPost, "/nudm-ueau/v1/:supi/auth-events",
             [this](const net::RequestView&, const net::PathParams&) {
               ++auth_events_;
               return net::HttpResponse::json(201, "{}");
             });

  // Resynchronisation: verify AUTS and write SQNms back to the UDR.
  router.add(
      net::Method::kPost, "/nudm-ueau/v1/resync",
      [this](const net::RequestView& req, const net::PathParams&) {
        const auto body = parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        const auto supi = resolve_identity(*body);
        const auto rand = hex_bytes(*body, "rand");
        const auto auts = hex_bytes(*body, "auts");
        if (!supi || !rand || !auts) {
          return net::HttpResponse::error(400, "missing resync fields");
        }
        auto sub = call(config_.udr_service,
                        sbi_get("/nudr-dr/v1/subscription-data/" +
                                supi->value + "/authentication-subscription"));
        if (sub.response.status != 200) {
          return net::HttpResponse::error(404, "unknown subscriber");
        }
        const auto sub_body = parse_body(sub.response.body);
        const auto opc = secret_hex_bytes(*sub_body, "opc");
        if (!opc) return net::HttpResponse::error(500, "bad UDR record");

        std::optional<Bytes> sqn_ms;
        if (config_.deployment == AkaDeployment::kExternal) {
          json::Object paka;
          paka["supi"] = supi->value;
          paka["opc"] = secret_hex_field(*opc, DeclassifyReason::kTransport,
                                         secret_ctx());
          paka["rand"] = hex_field(*rand);
          paka["auts"] = hex_field(*auts);
          auto res = call(next_eudm(),
                          json_post("/paka/v1/resync",
                                    json::Value(std::move(paka))));
          if (res.response.status != 200) {
            return net::HttpResponse::error(403, "AUTS verification failed");
          }
          const auto res_body = parse_body(res.response.body);
          if (res_body) sqn_ms = hex_bytes(*res_body, "sqnMs");
        } else {
          const auto k = secret_hex_bytes(*sub_body, "k");
          if (!k) return net::HttpResponse::error(500, "no key material");
          sqn_ms = resync_verify(*k, *opc, *rand, *auts);
        }
        if (!sqn_ms) {
          return net::HttpResponse::error(403, "AUTS verification failed");
        }
        json::Object put;
        put["sqn"] = hex_field(*sqn_ms);
        auto wr = call(config_.udr_service,
                       json_put("/nudr-dr/v1/subscription-data/" +
                                    supi->value + "/sqn",
                                json::Value(std::move(put))));
        if (wr.response.status != 200) {
          return net::HttpResponse::error(500, "SQN write-back failed");
        }
        S5G_LOG(LogLevel::kInfo, "udm")
            << "resynchronised SQN for " << supi->value;
        return net::HttpResponse::json(200, "{}");
      });
}

}  // namespace shield5g::nf
