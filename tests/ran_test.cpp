// RAN tests: USIM challenge handling, radio/PLMN model, gNB relay and
// the COTS UE gates of the OTA experiment.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/eph_pool.h"
#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"
#include "crypto/op_count.h"
#include "nf/aka_core.h"
#include "nf/nas.h"
#include "ran/cots_ue.h"
#include "ran/radio.h"
#include "ran/usim.h"
#include "slice/slice.h"

namespace shield5g::ran {
namespace {

UsimConfig test_usim(Rng& rng) {
  UsimConfig cfg;
  cfg.plmn = nf::Plmn{"001", "01"};
  cfg.msin = "0000000001";
  cfg.k = rng.bytes(16);
  cfg.opc = rng.bytes(16);
  cfg.sqn_ms = 0x0fff;
  cfg.suci_scheme = crypto::SuciScheme::kProfileA;
  const auto hn = crypto::x25519_keypair(rng.bytes(32));
  cfg.hn_public = Bytes(hn.public_key.begin(), hn.public_key.end());
  return cfg;
}

// ---------------------------------------------------------------------
// USIM
// ---------------------------------------------------------------------

class UsimFixture : public ::testing::Test {
 protected:
  Rng rng_{321};
  UsimConfig cfg_ = test_usim(rng_);
  std::string snn_ = crypto::serving_network_name("001", "01");

  /// Network-side AV for a given SQN.
  nf::HeAv make_av(std::uint64_t sqn, ByteView rand) {
    return nf::generate_he_av(cfg_.k, cfg_.opc, rand, be_bytes(sqn, 6),
                              Bytes{0x80, 0x00}, snn_);
  }
};

TEST_F(UsimFixture, AcceptsFreshChallenge) {
  Usim usim(cfg_);
  const Bytes rand = rng_.bytes(16);
  const auto av = make_av(0x1000, rand);
  const AuthOutcome outcome = usim.verify_challenge(rand, av.autn);
  ASSERT_TRUE(std::holds_alternative<AuthSuccess>(outcome));
  const auto& ok = std::get<AuthSuccess>(outcome);
  EXPECT_EQ(be_value(ok.sqn), 0x1000u);
  EXPECT_EQ(usim.sqn_ms(), 0x1000u);  // stored for replay protection
  // UE-side RES* must hash to the network's HXRES*.
  const Bytes res_star =
      crypto::derive_res_star(ok.ck, ok.ik, snn_, rand, ok.res);
  EXPECT_EQ(res_star, av.xres_star);
}

TEST_F(UsimFixture, RejectsWrongMac) {
  Usim usim(cfg_);
  const Bytes rand = rng_.bytes(16);
  auto av = make_av(0x1000, rand);
  av.autn[12] ^= 0x01;  // corrupt MAC-A
  EXPECT_TRUE(std::holds_alternative<AuthMacFailure>(
      usim.verify_challenge(rand, av.autn)));
  EXPECT_EQ(usim.sqn_ms(), 0x0fffu);  // unchanged
}

TEST_F(UsimFixture, RejectsAttackerForgedChallenge) {
  Usim usim(cfg_);
  const Bytes rand = rng_.bytes(16);
  // Attacker without K fabricates an AUTN.
  const Bytes fake_autn = rng_.bytes(16);
  EXPECT_TRUE(std::holds_alternative<AuthMacFailure>(
      usim.verify_challenge(rand, fake_autn)));
}

TEST_F(UsimFixture, ReplayTriggersSyncFailure) {
  Usim usim(cfg_);
  const Bytes rand = rng_.bytes(16);
  const auto av = make_av(0x1000, rand);
  ASSERT_TRUE(std::holds_alternative<AuthSuccess>(
      usim.verify_challenge(rand, av.autn)));
  // Replaying the same (RAND, AUTN): SQN no longer fresh.
  const AuthOutcome replay = usim.verify_challenge(rand, av.autn);
  ASSERT_TRUE(std::holds_alternative<AuthSyncFailure>(replay));
  // The AUTS it generates verifies at the network and reveals SQNms.
  const auto& sync = std::get<AuthSyncFailure>(replay);
  const auto sqn_ms =
      nf::resync_verify(cfg_.k, cfg_.opc, rand, sync.auts);
  ASSERT_TRUE(sqn_ms.has_value());
  EXPECT_EQ(be_value(*sqn_ms), 0x1000u);
}

TEST_F(UsimFixture, FarFutureSqnRejected) {
  Usim usim(cfg_);
  const Bytes rand = rng_.bytes(16);
  const auto av = make_av(0x0fff + Usim::kSqnDelta + 100, rand);
  EXPECT_TRUE(std::holds_alternative<AuthSyncFailure>(
      usim.verify_challenge(rand, av.autn)));
}

TEST_F(UsimFixture, SuciConcealment) {
  Usim usim(cfg_);
  const crypto::Suci suci = usim.make_suci(rng_.bytes(32));
  EXPECT_EQ(suci.mcc, "001");
  EXPECT_EQ(suci.mnc, "01");
  // The MSIN must not appear in the scheme output.
  EXPECT_EQ(suci.to_string().find("0000000001"), std::string::npos);
  EXPECT_EQ(usim.supi(), "001010000000001");
  // The SUCI names the home-network key the USIM concealed to.
  EXPECT_EQ(suci.hn_key_id, 1);
  UsimConfig keyed = cfg_;
  keyed.hn_key_id = 7;
  const crypto::Suci named = Usim(keyed).make_suci(rng_.bytes(32));
  EXPECT_EQ(named.hn_key_id, 7);
  EXPECT_EQ(named.to_string().rfind("suci-0-001-01-0000-1-7-", 0), 0u);
}

TEST(UeConceal, PoolBackedRegistrationCostsOneX25519Op) {
  // With a pool the ephemeral pair is pregenerated off-meter, so each
  // registration's SUCI costs exactly the one mult against the
  // home-network key, refills included; without a pool the UE pays the
  // fused two-mult path.
  Rng rng(323);
  UsimConfig cfg = test_usim(rng);
  const auto hn = crypto::x25519_keypair(rng.bytes(32));
  cfg.hn_public = Bytes(hn.public_key.begin(), hn.public_key.end());
  crypto::EphemeralKeyPool pool({/*capacity=*/4, /*seed=*/9});
  UeDevice ue(cfg, 5, &pool);
  for (int i = 0; i < 6; ++i) {  // the fifth registration refills the ring
    const crypto::OpCounts before = crypto::op_counts();
    const Bytes request = ue.start_registration();
    EXPECT_EQ((crypto::op_counts() - before).x25519_ops, 1u)
        << "registration " << i;
    const auto msg = nf::NasMessage::decode(request);
    ASSERT_TRUE(msg.has_value());
    const auto suci =
        crypto::Suci::from_string(to_string(msg->at(nf::NasIe::kSuci)));
    ASSERT_TRUE(suci.has_value());
    EXPECT_EQ(crypto::deconceal_suci(*suci, hn.private_key),
              "001010000000001");
  }
  EXPECT_EQ(pool.generated(), 8u);

  UeDevice legacy(cfg, 5);
  const crypto::OpCounts before = crypto::op_counts();
  legacy.start_registration();
  EXPECT_EQ((crypto::op_counts() - before).x25519_ops, 2u);
}

// ---------------------------------------------------------------------
// Radio / PLMN search
// ---------------------------------------------------------------------

TEST(Radio, PlmnSearchFindsMatchingCell) {
  const std::vector<CellConfig> cells = {
      CellConfig{nf::Plmn{"310", "410"}, 3.5, 106, "commercial"},
      CellConfig{nf::Plmn{"001", "01"}, 3.6192, 106, "oai-gnb"},
  };
  EXPECT_EQ(plmn_search(cells, {nf::Plmn{"001", "01"}}), 1);
  EXPECT_EQ(plmn_search(cells, {nf::Plmn{"310", "410"}}), 0);
  EXPECT_EQ(plmn_search(cells, {nf::Plmn{"999", "99"}}), -1);
  EXPECT_EQ(plmn_search({}, {nf::Plmn{"001", "01"}}), -1);
}

TEST(Radio, LinkChargesAirLatency) {
  sim::VirtualClock clock;
  RadioLink link(clock, 1);
  const sim::Nanos t0 = clock.now();
  link.traverse(100);
  const sim::Nanos cost = clock.now() - t0;
  // ~3.8 ms one way with jitter.
  EXPECT_GT(sim::to_ms(cost), 2.5);
  EXPECT_LT(sim::to_ms(cost), 6.0);
}

// ---------------------------------------------------------------------
// Full registration through the slice (all isolation modes)
// ---------------------------------------------------------------------

class RegistrationMode
    : public ::testing::TestWithParam<slice::IsolationMode> {};

TEST_P(RegistrationMode, UeRegistersAndGetsPduSession) {
  slice::SliceConfig cfg;
  cfg.mode = GetParam();
  cfg.subscriber_count = 2;
  slice::Slice s(cfg);
  s.create();

  // First registration absorbs the per-module cold-path spikes (R_I);
  // measure the second, steady-state one.
  ASSERT_TRUE(s.register_subscriber(0, /*with_pdu=*/true).session_up);
  const auto result = s.register_subscriber(1, /*with_pdu=*/true);
  EXPECT_TRUE(result.registered);
  EXPECT_TRUE(result.session_up);
  EXPECT_FALSE(result.ue_ip.empty());
  EXPECT_EQ(result.final_state, UeNasState::kSessionUp);
  EXPECT_EQ(s.amf().registrations_completed(), 2u);
  EXPECT_EQ(s.smf().sessions_created(), 2u);

  // Session setup in the tens of milliseconds (paper: 62.38 ms).
  EXPECT_GT(sim::to_ms(result.setup_time), 30.0);
  EXPECT_LT(sim::to_ms(result.setup_time), 120.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RegistrationMode,
    ::testing::Values(slice::IsolationMode::kMonolithic,
                      slice::IsolationMode::kContainer,
                      slice::IsolationMode::kSgx),
    [](const ::testing::TestParamInfo<slice::IsolationMode>& info) {
      switch (info.param) {
        case slice::IsolationMode::kMonolithic: return "Monolithic";
        case slice::IsolationMode::kContainer: return "Container";
        default: return "Sgx";
      }
    });

TEST(Registration, ResyncAfterSqnDesynchronisation) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kContainer;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();

  // Desynchronise: the USIM believes in a far-future SQN.
  UsimConfig usim = s.subscriber(0);
  usim.sqn_ms = usim.sqn_ms + (1ULL << 30);
  UeDevice ue(usim, 777);
  const auto result = s.gnbsim().register_ue(ue, true);
  EXPECT_TRUE(result.registered);
  EXPECT_TRUE(result.session_up);
  EXPECT_EQ(s.amf().resyncs(), 1u);
}

TEST(Registration, WrongKeyFailsAuthentication) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kContainer;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();

  UsimConfig usim = s.subscriber(0);
  Bytes cloned_k = usim.k.reveal_for_test();
  cloned_k[0] ^= 0x01;  // cloned SIM with a wrong key
  usim.k = SecretBytes(std::move(cloned_k));
  UeDevice ue(usim, 778);
  const auto result = s.gnbsim().register_ue(ue, true);
  EXPECT_FALSE(result.registered);
  EXPECT_EQ(result.final_state, UeNasState::kFailed);
  EXPECT_EQ(s.amf().registrations_completed(), 0u);
}

TEST(Registration, UnknownSubscriberRejected) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kContainer;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();

  UsimConfig usim = s.subscriber(0);
  usim.msin = "9999999999";  // not provisioned
  UeDevice ue(usim, 779);
  const auto result = s.gnbsim().register_ue(ue, true);
  EXPECT_FALSE(result.registered);
}

TEST(Registration, ForeignPlmnRejected) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kMonolithic;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();

  UsimConfig usim = s.subscriber(0);
  usim.plmn = nf::Plmn{"310", "410"};  // roamer from another network
  UeDevice ue(usim, 780);
  const auto result = s.gnbsim().register_ue(ue, true);
  EXPECT_FALSE(result.registered);
}

TEST(Registration, MassRegistrationAllSucceed) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kContainer;
  cfg.subscriber_count = 10;
  slice::Slice s(cfg);
  s.create();

  std::vector<UeDevice> ues;
  for (std::uint32_t i = 0; i < 10; ++i) {
    ues.emplace_back(s.subscriber(i), 1000 + i);
  }
  const auto results = s.gnbsim().run_mass(ues, true);
  EXPECT_EQ(s.gnbsim().success_count(), 10u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.session_up);
  }
  EXPECT_EQ(s.gnbsim().setup_ms().count(), 10u);
}


TEST(GnbNgap, SetupRejectedForForeignPlmn) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kMonolithic;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();
  EXPECT_TRUE(s.gnb().ng_ready());
  // A second gNB broadcasting a foreign PLMN is refused by the AMF.
  Gnb rogue(s.clock(), s.amf(),
            CellConfig{nf::Plmn{"999", "99"}, 3.5, 106, "rogue-gnb"});
  EXPECT_FALSE(rogue.ng_ready());
  const auto id = rogue.attach_ue();
  EXPECT_THROW(rogue.deliver_uplink(id, Bytes{0x7e}), std::logic_error);
}

TEST(GnbNgap, ReleaseFreesContexts) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kMonolithic;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  s.create();
  UeDevice ue(s.subscriber(0), 11);
  const auto result = s.gnbsim().register_ue(ue, false);
  ASSERT_TRUE(result.registered);
  const std::size_t attached = s.gnb().attached_count();
  s.gnb().release_ue(1);
  EXPECT_EQ(s.gnb().attached_count(), attached - 1);
  EXPECT_EQ(s.amf().ue_state(1), nf::UeState::kDeregistered);
}

// ---------------------------------------------------------------------
// COTS UE / OTA gates
// ---------------------------------------------------------------------

class CotsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.mode = slice::IsolationMode::kSgx;
    cfg_.subscriber_count = 1;
    s_ = std::make_unique<slice::Slice>(cfg_);
    s_->create();
  }

  slice::SliceConfig cfg_;
  std::unique_ptr<slice::Slice> s_;
};

TEST_F(CotsFixture, ConnectsOnTestPlmnWithCompatibleOs) {
  CotsUe phone(CotsModel{}, s_->subscriber(0));
  const OtaOutcome outcome =
      phone.connect({s_->gnb().cell()}, s_->gnbsim());
  EXPECT_EQ(outcome, OtaOutcome::kConnected);
  EXPECT_EQ(phone.network_name(), "Test1-1 - OpenAirInterface");
}

TEST_F(CotsFixture, CustomPlmnNotDetected) {
  // Paper §V-B6: "if custom mobile country or network codes were used,
  // the device would be unable to detect the OAI gNB".
  CotsUe phone(CotsModel{}, s_->subscriber(0));
  CellConfig custom = s_->gnb().cell();
  custom.plmn = nf::Plmn{"123", "45"};
  EXPECT_EQ(phone.connect({custom}, s_->gnbsim()),
            OtaOutcome::kNoCellDetected);
}

TEST_F(CotsFixture, IncompatibleOsBuildFails) {
  CotsModel model;
  model.os_version = "Oxygen 13.1.0.513";  // newer build, not validated
  CotsUe phone(model, s_->subscriber(0));
  EXPECT_EQ(phone.connect({s_->gnb().cell()}, s_->gnbsim()),
            OtaOutcome::kOsIncompatible);
}

TEST_F(CotsFixture, BadSimFailsRegistration) {
  UsimConfig usim = s_->subscriber(0);
  Bytes bad_k = usim.k.reveal_for_test();
  bad_k[5] ^= 0xff;
  usim.k = SecretBytes(std::move(bad_k));
  CotsUe phone(CotsModel{}, usim);
  EXPECT_EQ(phone.connect({s_->gnb().cell()}, s_->gnbsim()),
            OtaOutcome::kRegistrationFailed);
}

TEST(OtaOutcomeNames, AllNamed) {
  EXPECT_STREQ(ota_outcome_name(OtaOutcome::kConnected), "connected");
  EXPECT_STREQ(ota_outcome_name(OtaOutcome::kNoCellDetected),
               "no cell detected");
}

}  // namespace
}  // namespace shield5g::ran
