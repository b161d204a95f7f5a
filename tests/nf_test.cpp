// Core-network VNF tests: NAS codec, AKA core math, UDR/UDM/AUSF SBI
// behaviour, SMF/UPF sessions, NRF discovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"
#include "crypto/suci.h"
#include "json/json.h"
#include "nf/aka_core.h"
#include "nf/amf.h"
#include "nf/ausf.h"
#include "nf/nas.h"
#include "nf/ngap.h"
#include "nf/nrf.h"
#include "nf/sbi.h"
#include "nf/smf.h"
#include "nf/types.h"
#include "nf/udm.h"
#include "nf/udr.h"
#include "nf/upf.h"

namespace shield5g::nf {
namespace {

// ---------------------------------------------------------------------
// NAS codec
// ---------------------------------------------------------------------

TEST(Nas, PlainRoundTrip) {
  NasMessage msg;
  msg.type = NasType::kAuthenticationRequest;
  msg.set(NasIe::kRand, Bytes(16, 0xaa));
  msg.set(NasIe::kAutn, Bytes(16, 0xbb));
  msg.set(NasIe::kNgKsi, Bytes{0x01});
  const auto decoded = NasMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, NasType::kAuthenticationRequest);
  EXPECT_EQ(decoded->at(NasIe::kRand), Bytes(16, 0xaa));
  EXPECT_EQ(decoded->at(NasIe::kNgKsi), Bytes{0x01});
  EXPECT_FALSE(decoded->has(NasIe::kAuts));
  EXPECT_THROW(decoded->at(NasIe::kAuts), std::out_of_range);
}

TEST(Nas, MalformedWireRejected) {
  EXPECT_FALSE(NasMessage::decode(Bytes{}).has_value());
  EXPECT_FALSE(NasMessage::decode(Bytes{0x00, 0x41, 0x00}).has_value());
  // Truncated IE.
  Bytes truncated = {0x7e, 0x41, 0x01, 0x21, 0x00, 0x10, 0xaa};
  EXPECT_FALSE(NasMessage::decode(truncated).has_value());
  // Trailing garbage.
  NasMessage msg;
  msg.type = NasType::kRegistrationComplete;
  Bytes wire = msg.encode();
  wire.push_back(0x00);
  EXPECT_FALSE(NasMessage::decode(wire).has_value());
}

TEST(Nas, SecuredProtectVerify) {
  const Bytes key(16, 0x42);
  NasMessage msg;
  msg.type = NasType::kSecurityModeComplete;
  const SecuredNas sec = SecuredNas::protect(msg, key, 7, false);
  const auto decoded = SecuredNas::decode(sec.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->count, 7u);
  EXPECT_FALSE(decoded->downlink);
  const auto inner = decoded->verify(key);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->type, NasType::kSecurityModeComplete);
}

TEST(Nas, SecuredRejectsWrongKeyCountDirectionTamper) {
  const Bytes key(16, 0x42), other(16, 0x43);
  NasMessage msg;
  msg.type = NasType::kSecurityModeComplete;
  SecuredNas sec = SecuredNas::protect(msg, key, 7, false);
  EXPECT_FALSE(sec.verify(other).has_value());

  SecuredNas wrong_count = sec;
  wrong_count.count = 8;  // MAC binds the count
  EXPECT_FALSE(wrong_count.verify(key).has_value());

  SecuredNas wrong_dir = sec;
  wrong_dir.downlink = true;  // MAC binds the direction
  EXPECT_FALSE(wrong_dir.verify(key).has_value());

  SecuredNas tampered = sec;
  tampered.payload[1] ^= 0x01;
  EXPECT_FALSE(tampered.verify(key).has_value());
}

// ---------------------------------------------------------------------
// AKA core
// ---------------------------------------------------------------------

class AkaCoreFixture : public ::testing::Test {
 protected:
  Rng rng_{55};
  Bytes k_ = rng_.bytes(16);
  Bytes opc_ = rng_.bytes(16);
  Bytes rand_ = rng_.bytes(16);
  Bytes sqn_ = Bytes{0, 0, 0, 0, 1, 0};
  Bytes amf_field_ = Bytes{0x80, 0x00};
  std::string snn_ = crypto::serving_network_name("001", "01");
};

TEST_F(AkaCoreFixture, HeAvShape) {
  const HeAv av = generate_he_av(k_, opc_, rand_, sqn_, amf_field_, snn_);
  EXPECT_EQ(av.rand, rand_);
  EXPECT_EQ(av.autn.size(), 16u);
  EXPECT_EQ(av.xres_star.size(), 16u);
  EXPECT_EQ(av.kausf.size(), 32u);
}

TEST_F(AkaCoreFixture, SeDerivationMatchesPaperSizes) {
  const HeAv av = generate_he_av(k_, opc_, rand_, sqn_, amf_field_, snn_);
  const SeDerivation se = derive_se(rand_, av.xres_star, av.kausf, snn_);
  EXPECT_EQ(se.hxres_star.size(), kHxresStarBytes);  // Table I: 8 bytes
  EXPECT_EQ(se.kseaf.size(), 32u);
}

TEST_F(AkaCoreFixture, ResyncRoundTrip) {
  const Bytes sqn_ms = Bytes{0, 0, 0, 0, 0, 42};
  const Bytes auts = build_auts(k_, opc_, rand_, sqn_ms);
  EXPECT_EQ(auts.size(), 14u);
  const auto recovered = resync_verify(k_, opc_, rand_, auts);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, sqn_ms);
}

TEST_F(AkaCoreFixture, ResyncRejectsTamperedAuts) {
  Bytes auts = build_auts(k_, opc_, rand_, Bytes{0, 0, 0, 0, 0, 42});
  auts[13] ^= 0x01;
  EXPECT_FALSE(resync_verify(k_, opc_, rand_, auts).has_value());
  EXPECT_FALSE(resync_verify(k_, opc_, rand_, Bytes(13, 0)).has_value());
}

TEST_F(AkaCoreFixture, ResyncRejectsWrongKey) {
  const Bytes auts = build_auts(k_, opc_, rand_, Bytes{0, 0, 0, 0, 0, 42});
  const Bytes other_k = rng_.bytes(16);
  EXPECT_FALSE(resync_verify(other_k, opc_, rand_, auts).has_value());
}

TEST_F(AkaCoreFixture, DeploymentsProduceIdenticalVectors) {
  // The same math backs monolithic / container / SGX deployments.
  const HeAv a = generate_he_av(k_, opc_, rand_, sqn_, amf_field_, snn_);
  const HeAv b = generate_he_av(k_, opc_, rand_, sqn_, amf_field_, snn_);
  EXPECT_EQ(a.autn, b.autn);
  EXPECT_EQ(a.xres_star, b.xres_star);
  EXPECT_EQ(a.kausf, b.kausf);
}

// ---------------------------------------------------------------------
// VNFs over the bus
// ---------------------------------------------------------------------

class CoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    hn_key_ = crypto::x25519_keypair(rng_.bytes(32));

    udr_ = std::make_unique<Udr>(bus_);
    UdmConfig udm_cfg;
    udm_cfg.deployment = AkaDeployment::kMonolithic;
    udm_cfg.hn_key = hn_key_;
    udm_ = std::make_unique<Udm>(bus_, udm_cfg);
    AusfConfig ausf_cfg;
    ausf_cfg.deployment = AkaDeployment::kMonolithic;
    ausf_cfg.allowed_snns.insert(snn_);
    ausf_ = std::make_unique<Ausf>(bus_, ausf_cfg);

    record_.supi = Supi{"001010000000001"};
    record_.k = rng_.bytes(16);
    record_.opc = rng_.bytes(16);
    record_.sqn = 0x1000;
    udr_->provision(record_);
  }

  json::Value body_of(const net::HttpResponse& resp) {
    return json::parse(resp.body);
  }

  sim::VirtualClock clock_;
  net::Bus bus_{clock_};
  Rng rng_{66};
  crypto::X25519KeyPair hn_key_;
  std::unique_ptr<Udr> udr_;
  std::unique_ptr<Udm> udm_;
  std::unique_ptr<Ausf> ausf_;
  SubscriberRecord record_;
  const std::string snn_ = crypto::serving_network_name("001", "01");
};

TEST_F(CoreFixture, UdrReturnsProvisionedRecord) {
  const auto resp = bus_.request(
      "test", "udr",
      sbi_get("/nudr-dr/v1/subscription-data/001010000000001/"
              "authentication-subscription"));
  ASSERT_EQ(resp.response.status, 200);
  const auto body = body_of(resp.response);
  EXPECT_EQ(*hex_bytes(body, "k"), record_.k);
  EXPECT_EQ(*hex_bytes(body, "opc"), record_.opc);
}

TEST_F(CoreFixture, UdrUnknownSupi404) {
  const auto resp = bus_.request(
      "test", "udr",
      sbi_get("/nudr-dr/v1/subscription-data/999999999999999/"
              "authentication-subscription"));
  EXPECT_EQ(resp.response.status, 404);
}

TEST_F(CoreFixture, UdrSqnAdvances) {
  auto advance = [this] {
    const auto resp = bus_.request(
        "test", "udr",
        json_post(
            "/nudr-dr/v1/subscription-data/001010000000001/sqn-advance",
            json::Value(json::Object{})));
    return be_value(*hex_bytes(body_of(resp.response), "sqn"));
  };
  const auto first = advance();
  const auto second = advance();
  EXPECT_EQ(first, 0x1000u + Udr::kSqnStep);
  EXPECT_EQ(second, first + Udr::kSqnStep);
}

TEST_F(CoreFixture, UdrProvisionOverSbi) {
  json::Object body;
  body["k"] = hex_field(Bytes(16, 1));
  body["opc"] = hex_field(Bytes(16, 2));
  body["sqn"] = hex_field(Bytes(6, 0));
  const auto resp = bus_.request(
      "test", "udr",
      json_put("/nudr-dr/v1/subscription-data/001010000000099",
               json::Value(std::move(body))));
  EXPECT_EQ(resp.response.status, 201);
  EXPECT_NE(udr_->store().row("001010000000099"), SubscriberStore::kNoRow);
  EXPECT_EQ(udr_->subscriber_count(), 2u);
}

TEST_F(CoreFixture, UdrProvisionRejectsMalformedAmfField) {
  auto put = [this](const std::string& supi, const char* amf_field) {
    json::Object body;
    body["k"] = hex_field(Bytes(16, 1));
    body["opc"] = hex_field(Bytes(16, 2));
    body["sqn"] = hex_field(Bytes(6, 0));
    body["amfField"] = json::Value(std::string(amf_field));
    return bus_
        .request("test", "udr",
                 json_put("/nudr-dr/v1/subscription-data/" + supi,
                          json::Value(std::move(body))))
        .response.status;
  };
  // Present but not two hex bytes: rejected like a bad k/opc/sqn, and
  // nothing is stored (no silent fallback to the default 8000).
  for (const char* bad : {"900000", "zz00", "90"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(put("001010000000098", bad), 400);
    EXPECT_EQ(udr_->subscriber_count(), 1u);
    EXPECT_EQ(udr_->store().row("001010000000098"), SubscriberStore::kNoRow);
  }
  EXPECT_EQ(put("001010000000098", "9000"), 201);
  ASSERT_EQ(udr_->subscriber_count(), 2u);
  const std::uint32_t row = udr_->store().row("001010000000098");
  ASSERT_NE(row, SubscriberStore::kNoRow);
  EXPECT_EQ(Bytes(udr_->store().amf_field(row).begin(),
                  udr_->store().amf_field(row).end()),
            (Bytes{0x90, 0x00}));
}

TEST_F(CoreFixture, UdmGeneratesAvFromSupi) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] = snn_;
  const auto resp =
      bus_.request("test", "udm",
                   json_post("/nudm-ueau/v1/generate-auth-data",
                             json::Value(std::move(body))));
  ASSERT_EQ(resp.response.status, 200);
  const auto av = body_of(resp.response);
  EXPECT_EQ(hex_bytes(av, "rand")->size(), 16u);
  EXPECT_EQ(hex_bytes(av, "autn")->size(), 16u);
  EXPECT_EQ(hex_bytes(av, "xresStar")->size(), 16u);
  EXPECT_EQ(hex_bytes(av, "kausf")->size(), 32u);
  EXPECT_EQ(udm_->av_generated_count(), 1u);
}

TEST_F(CoreFixture, UdmDeconcealsSuci) {
  const crypto::Suci suci = crypto::conceal_supi(
      "001", "01", "0000000001", crypto::SuciScheme::kProfileA,
      hn_key_.public_key, rng_.bytes(32));
  json::Object body;
  body["suci"] = suci.to_string();
  body["servingNetworkName"] = snn_;
  const auto resp =
      bus_.request("test", "udm",
                   json_post("/nudm-ueau/v1/generate-auth-data",
                             json::Value(std::move(body))));
  ASSERT_EQ(resp.response.status, 200);
  EXPECT_EQ(*body_of(resp.response).get_string("supi"),
            record_.supi.value);
}

TEST_F(CoreFixture, UdmRejectsBadSuci) {
  crypto::Suci suci = crypto::conceal_supi(
      "001", "01", "0000000001", crypto::SuciScheme::kProfileA,
      hn_key_.public_key, rng_.bytes(32));
  suci.scheme_output[40] ^= 1;  // corrupt the ECIES payload
  json::Object body;
  body["suci"] = suci.to_string();
  body["servingNetworkName"] = snn_;
  const auto resp =
      bus_.request("test", "udm",
                   json_post("/nudm-ueau/v1/generate-auth-data",
                             json::Value(std::move(body))));
  EXPECT_EQ(resp.response.status, 403);
}

TEST_F(CoreFixture, UdmAvIsVerifiableByUsim) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] = snn_;
  const auto resp =
      bus_.request("test", "udm",
                   json_post("/nudm-ueau/v1/generate-auth-data",
                             json::Value(std::move(body))));
  const auto av = body_of(resp.response);
  const Bytes rand = *hex_bytes(av, "rand");
  const Bytes autn = *hex_bytes(av, "autn");

  // Replicate the USIM side and check MAC-A verifies.
  const crypto::Milenage milenage(record_.k, record_.opc);
  const auto out = milenage.compute_f2345(rand);
  const auto fields = crypto::parse_autn(autn);
  const Bytes sqn = xor_bytes(fields.sqn_xor_ak, out.ak);
  Bytes mac_a, mac_s;
  milenage.compute_f1(rand, sqn, fields.amf, mac_a, mac_s);
  EXPECT_EQ(mac_a, fields.mac_a);
  EXPECT_EQ(be_value(sqn), 0x1000u + Udr::kSqnStep);
}

TEST_F(CoreFixture, AusfFullPhaseOneAndConfirm) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] = snn_;
  const auto auth =
      bus_.request("test", "ausf",
                   json_post("/nausf-auth/v1/ue-authentications",
                             json::Value(std::move(body))));
  ASSERT_EQ(auth.response.status, 201);
  const auto av = body_of(auth.response);
  const std::string ctx_id = *av.get_string("authCtxId");
  const Bytes rand = *hex_bytes(av, "rand");
  const Bytes autn = *hex_bytes(av, "autn");
  const Bytes hxres = *hex_bytes(av, "hxresStar");
  EXPECT_EQ(hxres.size(), kHxresStarBytes);

  // UE side: compute RES*.
  const crypto::Milenage milenage(record_.k, record_.opc);
  const auto out = milenage.compute_f2345(rand);
  const Bytes res_star =
      crypto::derive_res_star(out.ck, out.ik, snn_, rand, out.res);
  // Serving-network check: HRES* must match HXRES*.
  EXPECT_EQ(crypto::derive_hxres_star(rand, res_star, kHxresStarBytes),
            hxres);

  json::Object confirm;
  confirm["resStar"] = hex_field(res_star);
  const auto conf = bus_.request(
      "test", "ausf",
      json_put("/nausf-auth/v1/ue-authentications/" + ctx_id +
                   "/5g-aka-confirmation",
               json::Value(std::move(confirm))));
  ASSERT_EQ(conf.response.status, 200);
  const auto conf_body = body_of(conf.response);
  EXPECT_EQ(*conf_body.get_string("result"), "AUTHENTICATION_SUCCESS");
  EXPECT_EQ(hex_bytes(conf_body, "kseaf")->size(), 32u);
  EXPECT_EQ(udm_->auth_events(), 1u);
}

TEST_F(CoreFixture, AusfRejectsWrongResStar) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] = snn_;
  const auto auth =
      bus_.request("test", "ausf",
                   json_post("/nausf-auth/v1/ue-authentications",
                             json::Value(std::move(body))));
  const std::string ctx_id =
      *body_of(auth.response).get_string("authCtxId");
  json::Object confirm;
  confirm["resStar"] = hex_field(Bytes(16, 0xee));
  const auto conf = bus_.request(
      "test", "ausf",
      json_put("/nausf-auth/v1/ue-authentications/" + ctx_id +
                   "/5g-aka-confirmation",
               json::Value(std::move(confirm))));
  EXPECT_EQ(*body_of(conf.response).get_string("result"),
            "AUTHENTICATION_FAILURE");
  EXPECT_EQ(udm_->auth_events(), 0u);
}

TEST_F(CoreFixture, AusfRejectsUnauthorizedServingNetwork) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] =
      crypto::serving_network_name("999", "99");
  const auto resp =
      bus_.request("test", "ausf",
                   json_post("/nausf-auth/v1/ue-authentications",
                             json::Value(std::move(body))));
  EXPECT_EQ(resp.response.status, 403);
}

TEST_F(CoreFixture, AusfContextIsSingleUse) {
  json::Object body;
  body["supi"] = record_.supi.value;
  body["servingNetworkName"] = snn_;
  const auto auth =
      bus_.request("test", "ausf",
                   json_post("/nausf-auth/v1/ue-authentications",
                             json::Value(std::move(body))));
  const std::string ctx_id =
      *body_of(auth.response).get_string("authCtxId");
  json::Object confirm;
  confirm["resStar"] = hex_field(Bytes(16, 0xee));
  bus_.request("test", "ausf",
               json_put("/nausf-auth/v1/ue-authentications/" + ctx_id +
                            "/5g-aka-confirmation",
                        json::Value(confirm)));
  const auto again = bus_.request(
      "test", "ausf",
      json_put("/nausf-auth/v1/ue-authentications/" + ctx_id +
                   "/5g-aka-confirmation",
               json::Value(confirm)));
  EXPECT_EQ(again.response.status, 404);
}

TEST_F(CoreFixture, UdmResyncUpdatesUdr) {
  const Bytes rand = rng_.bytes(16);
  const Bytes sqn_ms = Bytes{0, 0, 0, 0, 0x55, 0x00};
  const Bytes auts = build_auts(record_.k, record_.opc, rand, sqn_ms);
  json::Object body;
  body["supi"] = record_.supi.value;
  body["rand"] = hex_field(rand);
  body["auts"] = hex_field(auts);
  const auto resp = bus_.request(
      "test", "udm",
      json_post("/nudm-ueau/v1/resync", json::Value(std::move(body))));
  EXPECT_EQ(resp.response.status, 200);
  EXPECT_EQ(udr_->store().sqn(udr_->store().row(record_.supi.value)),
            be_value(sqn_ms) + Udr::kSqnStep);
}

TEST_F(CoreFixture, UdmResyncRejectsForgedAuts) {
  const Bytes rand = rng_.bytes(16);
  Bytes auts =
      build_auts(record_.k, record_.opc, rand, Bytes{0, 0, 0, 0, 0x55, 0});
  auts[8] ^= 1;
  json::Object body;
  body["supi"] = record_.supi.value;
  body["rand"] = hex_field(rand);
  body["auts"] = hex_field(auts);
  const auto resp = bus_.request(
      "test", "udm",
      json_post("/nudm-ueau/v1/resync", json::Value(std::move(body))));
  EXPECT_EQ(resp.response.status, 403);
  EXPECT_EQ(udr_->store().sqn(udr_->store().row(record_.supi.value)),
            0x1000u);  // unchanged
}

// ---------------------------------------------------------------------
// SMF / UPF / NRF
// ---------------------------------------------------------------------

TEST_F(CoreFixture, SmfCreatesAndReleasesPduSession) {
  Upf upf(clock_);
  Smf smf(bus_, upf);
  json::Object body;
  body["supi"] = record_.supi.value;
  body["pduSessionId"] = 1;
  body["dnn"] = "internet";
  const auto resp =
      bus_.request("test", "smf",
                   json_post("/nsmf-pdusession/v1/sm-contexts",
                             json::Value(body)));
  ASSERT_EQ(resp.response.status, 201);
  const auto created = body_of(resp.response);
  EXPECT_FALSE(created.get_string("ueIp")->empty());
  EXPECT_EQ(upf.session_count(), 1u);

  // Duplicate session id is a conflict.
  const auto dup =
      bus_.request("test", "smf",
                   json_post("/nsmf-pdusession/v1/sm-contexts",
                             json::Value(body)));
  EXPECT_EQ(dup.response.status, 409);

  net::HttpRequest del;
  del.method = net::Method::kDelete;
  del.path = "/nsmf-pdusession/v1/sm-contexts/" + record_.supi.value + "/1";
  const auto released = bus_.request("test", "smf", del);
  EXPECT_EQ(released.response.status, 204);
  EXPECT_EQ(upf.session_count(), 0u);
}

TEST_F(CoreFixture, UpfAllocatesDistinctResources) {
  Upf upf(clock_);
  const auto s1 = upf.n4_establish("supi-a", 1, "internet");
  const auto s2 = upf.n4_establish("supi-b", 1, "internet");
  EXPECT_NE(s1.teid, s2.teid);
  EXPECT_NE(s1.ue_ip, s2.ue_ip);
  EXPECT_TRUE(upf.find(s1.teid).has_value());
  EXPECT_TRUE(upf.n4_release(s1.teid));
  EXPECT_FALSE(upf.n4_release(s1.teid));
}

TEST_F(CoreFixture, NrfRegisterAndDiscover) {
  Nrf nrf(bus_);
  json::Object profile;
  profile["nfType"] = "AUSF";
  profile["serviceName"] = "ausf";
  EXPECT_EQ(bus_.request("test", "nrf",
                         json_put("/nnrf-nfm/v1/nf-instances/ausf-1",
                                  json::Value(std::move(profile))))
                .response.status,
            201);

  const auto found = bus_.request(
      "test", "nrf", sbi_get("/nnrf-disc/v1/nf-instances/AUSF"));
  ASSERT_EQ(found.response.status, 200);
  const auto instances = body_of(found.response).at("nfInstances");
  ASSERT_EQ(instances.as_array().size(), 1u);
  EXPECT_EQ(*instances.as_array()[0].get_string("serviceName"), "ausf");

  const auto missing = bus_.request(
      "test", "nrf", sbi_get("/nnrf-disc/v1/nf-instances/UPF"));
  EXPECT_EQ(missing.response.status, 404);
}


// ---------------------------------------------------------------------
// NGAP (N2)
// ---------------------------------------------------------------------

TEST(Ngap, CodecRoundTrip) {
  NgapMessage msg = NgapMessage::uplink_nas(7, 0x105, Bytes{1, 2, 3});
  const auto decoded = NgapMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, NgapType::kUplinkNasTransport);
  EXPECT_EQ(decoded->ran_ue_id, 7u);
  EXPECT_EQ(decoded->amf_ue_id, 0x105u);
  EXPECT_EQ(decoded->nas_pdu, (Bytes{1, 2, 3}));

  const NgapMessage setup =
      NgapMessage::ng_setup_request(Plmn{"001", "01"}, "oai-gnb");
  const auto setup_decoded = NgapMessage::decode(setup.encode());
  ASSERT_TRUE(setup_decoded.has_value());
  EXPECT_EQ(setup_decoded->plmn.id(), "00101");
  EXPECT_EQ(setup_decoded->gnb_name, "oai-gnb");
}

TEST(Ngap, MalformedRejected) {
  EXPECT_FALSE(NgapMessage::decode(Bytes{}).has_value());
  EXPECT_FALSE(NgapMessage::decode(Bytes(18, 0x4e)).has_value());
  Bytes truncated = NgapMessage::uplink_nas(1, 2, Bytes(8, 0)).encode();
  truncated.pop_back();
  EXPECT_FALSE(NgapMessage::decode(truncated).has_value());
  Bytes trailing = NgapMessage::uplink_nas(1, 2, Bytes(8, 0)).encode();
  trailing.push_back(0);
  EXPECT_FALSE(NgapMessage::decode(trailing).has_value());
}

TEST_F(CoreFixture, AmfNgSetupAdmission) {
  AmfConfig amf_cfg;
  amf_cfg.deployment = AkaDeployment::kMonolithic;
  Amf amf(bus_, amf_cfg);
  // Served PLMN accepted.
  const auto ok = amf.handle_ngap(
      NgapMessage::ng_setup_request(Plmn{"001", "01"}, "gnb-a").encode());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(NgapMessage::decode(*ok)->type, NgapType::kNgSetupResponse);
  EXPECT_EQ(amf.ng_setups(), 1u);
  // Foreign PLMN rejected.
  const auto bad = amf.handle_ngap(
      NgapMessage::ng_setup_request(Plmn{"310", "410"}, "gnb-b").encode());
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(NgapMessage::decode(*bad)->type, NgapType::kNgSetupFailure);
  EXPECT_EQ(amf.ng_setups(), 1u);
}

TEST_F(CoreFixture, AmfRejectsForgedUeAssociation) {
  AmfConfig amf_cfg;
  amf_cfg.deployment = AkaDeployment::kMonolithic;
  Amf amf(bus_, amf_cfg);
  // Uplink NAS transport for a UE that never sent an Initial UE Message
  // (or with a wrong AMF UE id) is dropped.
  NasMessage nas;
  nas.type = NasType::kRegistrationRequest;
  EXPECT_EQ(amf.handle_ngap(
                NgapMessage::uplink_nas(9, 0xdead, nas.encode()).encode()),
            std::nullopt);
}

TEST_F(CoreFixture, AmfUeContextRelease) {
  AmfConfig amf_cfg;
  amf_cfg.deployment = AkaDeployment::kMonolithic;
  Amf amf(bus_, amf_cfg);
  NgapMessage release;
  release.type = NgapType::kUeContextReleaseCommand;
  release.ran_ue_id = 3;
  const auto resp = amf.handle_ngap(release.encode());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(NgapMessage::decode(*resp)->type,
            NgapType::kUeContextReleaseComplete);
}

TEST(Types, GutiFormatting) {
  Guti guti{Plmn{"001", "01"}, 1, 1, 0x1000};
  EXPECT_EQ(guti.to_string(), "5g-guti-00101-01-001-00001000");
}

TEST(Types, SupiFromParts) {
  EXPECT_EQ(Supi::from_parts(Plmn{"001", "01"}, "0000000007").value,
            "001010000000007");
}

// ---------------------------------------------------------------------
// SubscriberStore: the UDR's columnar credential table
// ---------------------------------------------------------------------

SubscriberRecord store_record(std::uint32_t i) {
  SubscriberRecord rec;
  char msin[16];
  std::snprintf(msin, sizeof(msin), "%010u", 100000000u + i);
  rec.supi = Supi::from_parts(Plmn{"001", "01"}, msin);
  rec.k = SecretBytes(Bytes(16, static_cast<std::uint8_t>(i)));
  rec.opc = SecretBytes(Bytes(16, static_cast<std::uint8_t>(i ^ 0xFF)));
  rec.sqn = 0x100 + 0x40ULL * i;
  return rec;
}

TEST(SubscriberStore, ProvisionAndLookupRoundTrip) {
  SubscriberStore store;
  const SubscriberRecord rec = store_record(7);
  const std::uint32_t row = store.provision(rec);
  ASSERT_EQ(store.row(rec.supi.value), row);
  EXPECT_EQ(store.supi(row), rec.supi.value);
  EXPECT_EQ(store.sqn(row), rec.sqn);
  EXPECT_TRUE(ct_equal(store.k(row).unsafe_bytes(), rec.k.unsafe_bytes()));
  EXPECT_TRUE(ct_equal(store.opc(row).unsafe_bytes(), rec.opc.unsafe_bytes()));
  EXPECT_EQ(store.row("001019999999999"), SubscriberStore::kNoRow);
}

TEST(SubscriberStore, ReplaceReusesTheRow) {
  SubscriberStore store;
  const std::uint32_t row = store.provision(store_record(3));
  SubscriberRecord updated = store_record(3);
  updated.sqn = 0xBEEF;
  EXPECT_EQ(store.provision(updated), row) << "same SUPI keeps its row";
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.sqn(row), 0xBEEFULL);
}

TEST(SubscriberStore, SurvivesRehashGrowth) {
  // 500 rows push the open-addressed index through multiple doublings
  // (initial 64 slots); every interned SUPI view and every column must
  // survive the growth.
  SubscriberStore store;
  constexpr std::uint32_t kCount = 500;
  for (std::uint32_t i = 0; i < kCount; ++i) store.provision(store_record(i));
  ASSERT_EQ(store.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const SubscriberRecord rec = store_record(i);
    const std::uint32_t row = store.row(rec.supi.value);
    ASSERT_NE(row, SubscriberStore::kNoRow) << "lost " << rec.supi.value;
    EXPECT_EQ(store.supi(row), rec.supi.value);
    EXPECT_EQ(store.sqn(row), rec.sqn);
    EXPECT_TRUE(ct_equal(store.k(row).unsafe_bytes(), rec.k.unsafe_bytes()));
  }
  EXPECT_GT(store.bytes_reserved(), 0u);
}

TEST(SubscriberStore, SqnWritesLandInPlace) {
  SubscriberStore store;
  const std::uint32_t row = store.provision(store_record(0));
  store.set_sqn(row, store.sqn(row) + 32);
  EXPECT_EQ(store.sqn(row), 0x100ULL + 32);
  EXPECT_EQ(store.sqn_bytes(row), be_bytes(0x100ULL + 32, 6));
}

TEST(SubscriberStore, RejectsMalformedCredentials) {
  SubscriberStore store;
  SubscriberRecord bad_k = store_record(1);
  bad_k.k = SecretBytes(Bytes(15, 0x01));
  EXPECT_THROW(store.provision(bad_k), std::invalid_argument);
  SubscriberRecord bad_amf = store_record(2);
  bad_amf.amf_field = Bytes(3, 0x00);
  EXPECT_THROW(store.provision(bad_amf), std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);
}

TEST(SubscriberStore, ReserveIsIdempotentWithProvisioning) {
  SubscriberStore store;
  store.reserve(128);
  // First provision claims the arena's first identity chunk; after
  // that, a reserved bulk load must not rehash, grow columns, or need
  // another chunk (128 SUPIs are far below one 64 KiB chunk).
  store.provision(store_record(0));
  const std::size_t reserved = store.bytes_reserved();
  for (std::uint32_t i = 1; i < 128; ++i) store.provision(store_record(i));
  EXPECT_EQ(store.bytes_reserved(), reserved)
      << "a reserved bulk load must not rehash or grow columns";
  EXPECT_EQ(store.size(), 128u);
}

}  // namespace
}  // namespace shield5g::nf
