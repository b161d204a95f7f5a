#include "nf/udr.h"

#include "nf/sbi.h"

namespace shield5g::nf {

Udr::Udr(net::Bus& bus, const std::string& name) : Vnf(name, bus) {
  register_routes();
}

void Udr::register_routes() {
  auto& router = server_.router();

  // Authentication subscription read. The response includes the
  // permanent key only because the monolithic/container baselines need
  // it; an SGX deployment provisions K to the eUDM enclave sealed and
  // the UDM never forwards it (see paka::EudmAkaService).
  router.add(
      net::Method::kGet,
      "/nudr-dr/v1/subscription-data/:supi/authentication-subscription",
      [this](const net::RequestView&, const net::PathParams& params) {
        const std::uint32_t row = store_.row(params.at("supi"));
        if (row == SubscriberStore::kNoRow) {
          return net::HttpResponse::error(404, "unknown SUPI");
        }
        json::Object body;
        body["supi"] = std::string(store_.supi(row));
        // Audited, host-grade exposure: this is precisely the baseline
        // leak the paper's eUDM removes (the SGX deployment never hits
        // this route for K).
        body["k"] = secret_hex_field(store_.k(row),
                                     DeclassifyReason::kTransport,
                                     secret_ctx());
        body["opc"] = secret_hex_field(store_.opc(row),
                                       DeclassifyReason::kTransport,
                                       secret_ctx());
        body["sqn"] = hex_field(store_.sqn_bytes(row));
        body["amfField"] = hex_field(store_.amf_field(row));
        return net::HttpResponse::json(200, json::Value(body).dump());
      });

  // Atomic SQN advance for a fresh authentication vector.
  router.add(net::Method::kPost,
             "/nudr-dr/v1/subscription-data/:supi/sqn-advance",
             [this](const net::RequestView&, const net::PathParams& params) {
               const std::uint32_t row = store_.row(params.at("supi"));
               if (row == SubscriberStore::kNoRow) {
                 return net::HttpResponse::error(404, "unknown SUPI");
               }
               store_.set_sqn(row, store_.sqn(row) + kSqnStep);
               json::Object body;
               body["sqn"] = hex_field(store_.sqn_bytes(row));
               return net::HttpResponse::json(200, json::Value(body).dump());
             });

  // Resynchronisation write-back of the UE's SQNms.
  router.add(
      net::Method::kPut, "/nudr-dr/v1/subscription-data/:supi/sqn",
      [this](const net::RequestView& req, const net::PathParams& params) {
        const std::uint32_t row = store_.row(params.at("supi"));
        if (row == SubscriberStore::kNoRow) {
          return net::HttpResponse::error(404, "unknown SUPI");
        }
        const auto body = parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        const auto sqn = hex_bytes(*body, "sqn");
        if (!sqn || sqn->size() != 6) {
          return net::HttpResponse::error(400, "bad sqn");
        }
        // Jump past the UE's value so the next vector is acceptable.
        store_.set_sqn(row, be_value(*sqn) + kSqnStep);
        return net::HttpResponse::json(200, "{}");
      });

  // Provisioning over the SBI (used by examples/tests).
  router.add(
      net::Method::kPut, "/nudr-dr/v1/subscription-data/:supi",
      [this](const net::RequestView& req, const net::PathParams& params) {
        const auto body = parse_body(req.body);
        if (!body) return net::HttpResponse::error(400, "bad json");
        auto k = secret_hex_bytes(*body, "k");
        auto opc = secret_hex_bytes(*body, "opc");
        const auto sqn = hex_bytes(*body, "sqn");
        if (!k || k->size() != 16 || !opc || opc->size() != 16 || !sqn ||
            sqn->size() != 6) {
          return net::HttpResponse::error(400, "bad credential fields");
        }
        SubscriberRecord rec;
        rec.supi = Supi{params.at("supi")};
        rec.k = std::move(*k);
        rec.opc = std::move(*opc);
        rec.sqn = be_value(*sqn);
        // An absent amfField keeps the default; a present one must be
        // two hex bytes like the other fields, never silently dropped.
        if (body->has("amfField")) {
          auto amf_field = hex_bytes(*body, "amfField");
          if (!amf_field || amf_field->size() != 2) {
            return net::HttpResponse::error(400, "bad credential fields");
          }
          rec.amf_field = std::move(*amf_field);
        }
        provision(rec);
        return net::HttpResponse::json(201, "{}");
      });
}

}  // namespace shield5g::nf
