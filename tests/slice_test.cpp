// Slice orchestrator tests: creation under each isolation mode,
// attestation/sealing admission, deployment policies, creation timing.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <set>
#include <string>

#include "common/hex.h"
#include "nf/subscriber_store.h"
#include "slice/slice.h"

namespace shield5g::slice {
namespace {

TEST(SliceTest, ModeNames) {
  EXPECT_STREQ(isolation_mode_name(IsolationMode::kMonolithic),
               "monolithic");
  EXPECT_STREQ(isolation_mode_name(IsolationMode::kContainer), "container");
  EXPECT_STREQ(isolation_mode_name(IsolationMode::kSgx), "sgx");
}

TEST(SliceTest, MonolithicHasNoPakaModules) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;
  Slice s(cfg);
  const SliceCreation creation = s.create();
  EXPECT_EQ(s.eudm(), nullptr);
  EXPECT_EQ(s.eausf(), nullptr);
  EXPECT_EQ(s.eamf(), nullptr);
  EXPECT_EQ(creation.eudm_load, 0u);
  EXPECT_LT(sim::to_s(creation.total), 1.0);
}

TEST(SliceTest, ContainerModeDeploysPlainModules) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kContainer;
  Slice s(cfg);
  const SliceCreation creation = s.create();
  ASSERT_NE(s.eudm(), nullptr);
  EXPECT_FALSE(creation.attestation_ok);  // nothing to attest
  EXPECT_EQ(s.eudm()->runtime(), nullptr);
  EXPECT_GT(s.eudm()->key_count(), 0u);  // plain provisioning
  EXPECT_LT(sim::to_s(creation.total), 10.0);
}

TEST(SliceTest, SgxModeAttestsAndSealsBeforeAdmission) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kSgx;
  cfg.subscriber_count = 4;
  Slice s(cfg);
  const SliceCreation creation = s.create();
  EXPECT_TRUE(creation.attestation_ok);
  EXPECT_TRUE(creation.sealed_provisioning_ok);
  EXPECT_EQ(s.eudm()->key_count(), 4u);
  // Slice creation is dominated by three ~1-minute enclave loads
  // (Fig. 7: this is the slice creation / migration cost).
  EXPECT_GT(sim::to_s(creation.total), 150.0);
  EXPECT_LT(sim::to_s(creation.total), 220.0);
  for (const sim::Nanos load :
       {creation.eudm_load, creation.eausf_load, creation.eamf_load}) {
    EXPECT_GT(sim::to_s(load), 50.0);
    EXPECT_LT(sim::to_s(load), 65.0);
  }
}

TEST(SliceTest, DoubleCreateThrows) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;
  Slice s(cfg);
  s.create();
  EXPECT_THROW(s.create(), std::logic_error);
}

TEST(SliceTest, SubscriberAccessors) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;
  cfg.subscriber_count = 3;
  Slice s(cfg);
  s.create();
  const auto usim = s.subscriber(2);
  EXPECT_EQ(usim.plmn.id(), "00101");
  EXPECT_EQ(usim.k.size(), 16u);
  EXPECT_EQ(usim.msin.size(), 10u);
  EXPECT_THROW(s.subscriber(3), std::out_of_range);
  // Distinct subscribers get distinct keys.
  EXPECT_NE(s.subscriber(0).k, s.subscriber(1).k);
}

TEST(SliceTest, CountAndPopulationSlicesProvisionTheSameSubscribers) {
  // subscriber_count = N provisions ids 0..N-1 through the per-id
  // derivation, so it is the same slice as population = 0..N-1: the
  // same SUPI, K, OPc and SQN on the USIM and in the UDR, row for row.
  constexpr std::uint32_t kN = 5;
  SliceConfig by_count;
  by_count.mode = IsolationMode::kMonolithic;
  by_count.seed = 0xC0417ULL;
  by_count.subscriber_count = kN;
  SliceConfig by_ids = by_count;
  by_ids.population.resize(kN);
  std::iota(by_ids.population.begin(), by_ids.population.end(), 0u);
  Slice a(by_count);
  Slice b(by_ids);
  a.create();
  b.create();
  ASSERT_EQ(a.subscriber_capacity(), kN);
  ASSERT_EQ(b.subscriber_capacity(), kN);
  const nf::SubscriberStore& sa = a.udr().store();
  const nf::SubscriberStore& sb = b.udr().store();
  ASSERT_EQ(sa.size(), kN);
  ASSERT_EQ(sb.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    SCOPED_TRACE(i);
    const ran::UsimConfig ua = a.subscriber(i);
    const ran::UsimConfig ub = b.subscriber(i);
    EXPECT_EQ(ua.msin, ub.msin);
    EXPECT_TRUE(SecretView(ua.k) == SecretView(ub.k));
    EXPECT_TRUE(SecretView(ua.opc) == SecretView(ub.opc));
    EXPECT_EQ(ua.sqn_ms, ub.sqn_ms);
    EXPECT_EQ(sa.supi(i), sb.supi(i));
    EXPECT_EQ(sa.supi(i), ua.plmn.id() + ua.msin);
    EXPECT_TRUE(SecretView(sa.k(i)) == SecretView(sb.k(i)));
    EXPECT_TRUE(SecretView(sa.opc(i)) == SecretView(sb.opc(i)));
    EXPECT_EQ(sa.sqn(i), sb.sqn(i));
  }
}

TEST(SliceTest, PakaOptionsPropagate) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kSgx;
  cfg.paka.epc_size = 1ULL << 30;
  cfg.paka.max_threads = 10;
  Slice s(cfg);
  s.create();
  const auto& manifest = s.eudm()->runtime()->image().manifest;
  EXPECT_EQ(manifest.enclave_size, 1ULL << 30);
  EXPECT_EQ(manifest.max_threads, 10u);
}

TEST(SliceTest, DeterministicAcrossRuns) {
  auto run = [] {
    SliceConfig cfg;
    cfg.mode = IsolationMode::kContainer;
    cfg.subscriber_count = 1;
    Slice s(cfg);
    s.create();
    return s.register_subscriber(0, true).setup_time;
  };
  EXPECT_EQ(run(), run());  // same seed -> identical virtual timing
}

TEST(SliceTest, SeedChangesJitterNotOutcome) {
  SliceConfig a;
  a.mode = IsolationMode::kContainer;
  a.subscriber_count = 1;
  a.seed = 1;
  Slice sa(a);
  sa.create();
  const auto ra = sa.register_subscriber(0, true);

  SliceConfig b = a;
  b.seed = 2;
  Slice sb(b);
  sb.create();
  const auto rb = sb.register_subscriber(0, true);

  EXPECT_TRUE(ra.session_up);
  EXPECT_TRUE(rb.session_up);
  EXPECT_NE(ra.setup_time, rb.setup_time);
}

TEST(SliceTest, EudmReplicaPool) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kSgx;
  cfg.eudm_replicas = 3;
  cfg.subscriber_count = 6;
  Slice s(cfg);
  const auto creation = s.create();
  EXPECT_EQ(s.eudm_replicas().size(), 3u);
  EXPECT_TRUE(creation.attestation_ok);       // every replica attested
  EXPECT_TRUE(creation.sealed_provisioning_ok);  // every replica keyed
  EXPECT_EQ(s.machine().enclave_count(), 5u);    // 3x eUDM + eAUSF + eAMF

  // Registrations round-robin across the replicas.
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(s.register_subscriber(i, false).registered) << i;
  }
  for (const auto& replica : s.eudm_replicas()) {
    EXPECT_EQ(replica->server().requests_served(), 2u)
        << replica->name();
  }
}

TEST(SliceTest, ReplicasInContainerMode) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kContainer;
  cfg.eudm_replicas = 2;
  cfg.subscriber_count = 2;
  Slice s(cfg);
  s.create();
  EXPECT_EQ(s.eudm_replicas().size(), 2u);
  EXPECT_GT(s.eudm()->key_count(), 0u);  // plain provisioning reached all
  EXPECT_TRUE(s.register_subscriber(0, true).session_up);
  EXPECT_TRUE(s.register_subscriber(1, true).session_up);
}

TEST(SliceTest, ThreeModulesShareTheEpcPool) {
  SliceConfig cfg;
  cfg.mode = IsolationMode::kSgx;
  Slice s(cfg);
  s.create();
  // 3 x 512 MB committed out of the 16 GB combined EPC.
  EXPECT_EQ(s.machine().epc().used_bytes(), 3 * (512ULL << 20));
  EXPECT_EQ(s.machine().enclave_count(), 3u);
}

// Peak resident set of this process in KiB (VmHWM, the high-water mark
// of this program's own address space), or -1 if it cannot be read.
long peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kib = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

TEST(SliceTest, MillionSubscriberProvisionFitsRssCeiling) {
  // Capacity pin for the columnar UDR store: a population-mode slice
  // whose store is the only resident copy of 1,000,000 subscribers. The
  // store measures ~78 MB and the process ~90 MB at peak; the ceiling
  // leaves ~75% headroom, so allocator noise never trips it while a
  // fat-map regression (>3x per row) does at once.
  constexpr std::uint32_t kSubscribers = 1'000'000;
  constexpr long kRssCeilingKib = 160 * 1024;
  SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;  // pure store footprint
  cfg.seed = 0x1013A9ULL;
  cfg.population.resize(kSubscribers);
  std::iota(cfg.population.begin(), cfg.population.end(), 0u);
  cfg.subscriber_count = kSubscribers;
  Slice s(cfg);
  s.create();

  // Every provisioned SUPI must resolve while the store is alive.
  const nf::SubscriberStore& store = s.udr().store();
  EXPECT_EQ(store.size(), kSubscribers);
  std::uint32_t resolved = 0;
  char supi[24];
  for (std::uint32_t i = 0; i < kSubscribers; ++i) {
    std::snprintf(supi, sizeof(supi), "00101%010u", 100000000u + i);
    if (store.row(supi) != nf::SubscriberStore::kNoRow) ++resolved;
  }
  EXPECT_EQ(resolved, kSubscribers);

  const long peak_kib = peak_rss_kib();
  ASSERT_GT(peak_kib, 0) << "VmHWM unreadable";
  EXPECT_LE(peak_kib, kRssCeilingKib)
      << "1M provision peak RSS " << peak_kib / 1024 << " MiB";
}

TEST(SliceTest, PopulationCredentialsArePinnedAndAgreeEndToEnd) {
  // The bulk provisioning loop and the on-demand derivation behind
  // subscriber(i) must agree row for row. The ids cover the SUPI
  // format's edges: both sides of 900,000,000 (where %010u of
  // 100000000u + gid stops zero-padding), an id where that sum wraps,
  // and a repeated id, which replaces its row instead of adding one.
  // 3001 rows is no multiple of any power-of-two look-ahead distance,
  // and the last rows are distinct ids, so a dropped tail loses rows.
  SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;
  cfg.seed = 0x5EED18ULL;
  for (std::uint32_t g = 0; g < 1500; ++g) cfg.population.push_back(7 * g);
  cfg.population.push_back(14);  // repeats population[2]
  for (std::uint32_t g = 0; g < 1499; ++g) {
    cfg.population.push_back(899'999'250u + g);
  }
  cfg.population.push_back(0xFFFFFFFFu);  // MSIN 0099999999
  Slice s(cfg);
  s.create();

  const nf::SubscriberStore& store = s.udr().store();
  const std::set<std::uint32_t> distinct(cfg.population.begin(),
                                         cfg.population.end());
  ASSERT_EQ(store.size(), distinct.size());

  std::set<std::uint32_t> seen;
  std::uint32_t next_row = 0;
  for (std::uint32_t i = 0; i < cfg.population.size(); ++i) {
    const std::uint32_t gid = cfg.population[i];
    char supi[32];
    std::snprintf(supi, sizeof(supi), "00101%010u", 100000000u + gid);
    SCOPED_TRACE(supi);
    const std::uint32_t row = store.row(supi);
    ASSERT_NE(row, nf::SubscriberStore::kNoRow);
    // Rows are numbered in first-occurrence order of the population.
    if (seen.insert(gid).second) {
      EXPECT_EQ(row, next_row++);
    }
    EXPECT_EQ(store.supi(row), supi);

    const ran::UsimConfig usim = s.subscriber(i);
    EXPECT_EQ(usim.plmn.id() + usim.msin, supi);
    EXPECT_TRUE(SecretView(store.k(row)) == SecretView(usim.k));
    EXPECT_TRUE(SecretView(store.opc(row)) == SecretView(usim.opc));
    EXPECT_EQ(store.sqn(row), usim.sqn_ms + 1);
    EXPECT_EQ(Bytes(store.amf_field(row).begin(), store.amf_field(row).end()),
              (Bytes{0x80, 0x00}));
  }

  // Known answers at seed 0x5EED18: any change to the derivation (the
  // per-id stream, the draw order, the byte order) fails here.
  struct Known {
    std::uint32_t gid;
    const char* k;
    const char* opc;
  };
  for (const Known& known :
       {Known{0u, "194bd43d33474783a9d1b11d358ab158",
              "a5794649ef9072468833afa5ee492191"},
        Known{900'000'000u, "ba8d6373d349e13042675e7770cc0ef3",
              "2607d796c2589052c824110f4da43160"},
        Known{0xFFFFFFFFu, "6a7ef340934d0eafde3eb97191be18c3",
              "04264c556301eff4a8379978e165c222"}}) {
    char supi[32];
    std::snprintf(supi, sizeof(supi), "00101%010u", 100000000u + known.gid);
    SCOPED_TRACE(supi);
    const std::uint32_t row = store.row(supi);
    ASSERT_NE(row, nf::SubscriberStore::kNoRow);
    EXPECT_TRUE(SecretView(store.k(row)) == SecretView(hex_decode(known.k)));
    EXPECT_TRUE(SecretView(store.opc(row)) ==
                SecretView(hex_decode(known.opc)));
  }
}

}  // namespace
}  // namespace shield5g::slice
