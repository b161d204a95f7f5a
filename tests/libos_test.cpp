// LibOS (Gramine/GSC analogue) tests: manifest validation, image
// build, boot behaviour (load time, transition counts, preheat),
// syscall interposition and the exitless mode.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "libos/gsc.h"
#include "libos/manifest.h"
#include "libos/runtime.h"
#include "libos/trusted_files.h"
#include "sgx/machine.h"

namespace shield5g::libos {
namespace {

Bytes test_signer() { return Bytes(32, 0x5f); }

GscImage build_image(GscBuildOptions opts = {},
                     const std::string& name = "eudm-aka") {
  return gsc_build(name, opts, test_signer());
}

class LibosFixture : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  sgx::Machine machine_{clock_};
};

// ---------------------------------------------------------------------
// Trusted files & manifest
// ---------------------------------------------------------------------

TEST(TrustedFiles, RootfsShapeMatchesGscBehaviour) {
  const auto files = gsc_rootfs_files(0);
  EXPECT_EQ(files.size(), 2'300u);  // "majority of the root directory"
  EXPECT_GT(total_bytes(files), 50ULL << 20);
  // Only a small fraction is touched at boot.
  EXPECT_LT(boot_time_count(files), 20u);
  EXPECT_GT(boot_time_count(files), 0u);
}

TEST(TrustedFiles, RootfsDeterministicPerSeed) {
  const auto a = gsc_rootfs_files(1);
  const auto b = gsc_rootfs_files(1);
  const auto c = gsc_rootfs_files(2);
  EXPECT_EQ(file_set_digest(a), file_set_digest(b));
  EXPECT_NE(file_set_digest(a), file_set_digest(c));
}

TEST(TrustedFiles, AppLayerVariesByModule) {
  const auto udm = paka_app_files("eudm-aka", 2'000'000);
  const auto amf = paka_app_files("eamf-aka", 0);
  EXPECT_GT(total_bytes(udm), total_bytes(amf));
  EXPECT_NE(file_set_digest(udm), file_set_digest(amf));
}

TEST(Manifest, ValidationEnforcesPaperFloors) {
  Manifest m;
  m.entrypoint = "/srv/server";
  m.max_threads = 4;
  m.enclave_size = 512ULL << 20;
  EXPECT_NO_THROW(m.validate());

  m.max_threads = 3;  // paper §V-B2: below 4 -> inconsistent behaviour
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.max_threads = 4;
  m.enclave_size = 256ULL << 20;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.enclave_size = 512ULL << 20;
  m.entrypoint.clear();
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Manifest, SerializationCoversOptions) {
  Manifest a;
  a.entrypoint = "/srv/server";
  Manifest b = a;
  b.preheat_enclave = !a.preheat_enclave;
  const Bytes files = file_set_digest(a.trusted_files);
  EXPECT_NE(a.serialize(files), b.serialize(files));
  Manifest c = a;
  c.max_threads = 10;
  EXPECT_NE(a.serialize(files), c.serialize(files));
}

// ---------------------------------------------------------------------
// GSC build
// ---------------------------------------------------------------------

TEST(Gsc, BuildProducesSignedImage) {
  const GscImage image = build_image();
  EXPECT_EQ(image.name, "gsc-eudm-aka");
  EXPECT_EQ(image.signer_id, crypto::Sha256::digest(test_signer()));
  EXPECT_GT(image.manifest.trusted_files.size(), 2'300u);
  EXPECT_TRUE(image.manifest.preheat_enclave);
}

TEST(Gsc, OptionsReachManifest) {
  GscBuildOptions opts;
  opts.enclave_size = 8ULL << 30;
  opts.max_threads = 50;
  opts.preheat_enclave = false;
  opts.exitless = true;
  const GscImage image = build_image(opts);
  EXPECT_EQ(image.manifest.enclave_size, 8ULL << 30);
  EXPECT_EQ(image.manifest.max_threads, 50u);
  EXPECT_FALSE(image.manifest.preheat_enclave);
  EXPECT_TRUE(image.manifest.exitless);
}

// ---------------------------------------------------------------------
// Runtime boot
// ---------------------------------------------------------------------

TEST_F(LibosFixture, BootTakesAboutAMinuteWithPreheat) {
  GramineRuntime runtime(machine_, build_image());
  const sim::Nanos load = runtime.boot();
  // Fig. 7: 0.955-0.99 minutes. Accept the band 50-65 s.
  EXPECT_GT(sim::to_s(load), 50.0);
  EXPECT_LT(sim::to_s(load), 65.0);
  EXPECT_TRUE(runtime.booted());
  EXPECT_THROW(runtime.boot(), std::logic_error);
}

TEST_F(LibosFixture, PreheatDominatesLoadTime) {
  GscBuildOptions no_preheat;
  no_preheat.preheat_enclave = false;
  GramineRuntime cold(machine_, build_image(no_preheat));
  const sim::Nanos cold_load = cold.boot();

  sim::VirtualClock clock2;
  sgx::Machine machine2(clock2);
  GramineRuntime hot(machine2, build_image());
  const sim::Nanos hot_load = hot.boot();
  EXPECT_GT(hot_load, cold_load + 30 * sim::kSecond);
}

TEST_F(LibosFixture, BootPerformsHundredsOfOcalls) {
  GramineRuntime runtime(machine_, build_image());
  runtime.boot();
  const auto& counters = runtime.counters();
  // "The initialization of Gramine and glibc invokes several hundred
  // OCALLs" (paper §V-B1).
  EXPECT_GT(counters.ocalls, 400u);
  EXPECT_LT(counters.ocalls, 1'500u);
  // One resident ECALL per process + 3 helper threads.
  EXPECT_EQ(counters.ecalls, 4u);
  EXPECT_EQ(counters.eenter, counters.eexit + 4);
}

TEST_F(LibosFixture, LargerEnclaveLoadsSlower) {
  GramineRuntime small(machine_, build_image());
  const sim::Nanos t_small = small.boot();

  GscBuildOptions big;
  big.enclave_size = 2ULL << 30;
  sim::VirtualClock clock2;
  sgx::Machine machine2(clock2);
  GramineRuntime large(machine2, build_image(big));
  const sim::Nanos t_large = large.boot();
  EXPECT_GT(t_large, 2 * t_small);
}

TEST_F(LibosFixture, SyscallBecomesOcallRoundTrip) {
  GramineRuntime runtime(machine_, build_image());
  runtime.boot();
  const auto before = runtime.counters();
  const sim::Nanos t0 = clock_.now();
  runtime.syscall(Sys::kEpollWait);
  const auto delta = runtime.counters() - before;
  EXPECT_EQ(delta.ocalls, 1u);
  EXPECT_EQ(delta.eenter, 1u);
  EXPECT_EQ(delta.eexit, 1u);
  // Cost = transitions + host syscall + marshalling.
  const sim::Nanos cost = clock_.now() - t0;
  EXPECT_GT(cost, syscall_host_ns(Sys::kEpollWait));
  EXPECT_GT(cost, 8 * sim::kMicrosecond);
}

TEST_F(LibosFixture, ExitlessAvoidsTransitions) {
  GscBuildOptions opts;
  opts.exitless = true;
  GramineRuntime runtime(machine_, build_image(opts));
  runtime.boot();
  const auto before = runtime.counters();
  const sim::Nanos t0 = clock_.now();
  runtime.syscall(Sys::kEpollWait);
  const auto delta = runtime.counters() - before;
  EXPECT_EQ(delta.ocalls, 0u);
  EXPECT_EQ(delta.eenter, 0u);
  // Still costs host time + synchronisation, but less than an OCALL.
  const sim::Nanos cost = clock_.now() - t0;
  EXPECT_GT(cost, syscall_host_ns(Sys::kEpollWait));
  EXPECT_LT(cost, 10 * sim::kMicrosecond);
}

TEST_F(LibosFixture, ThreadSpawnRespectsTcsLimit) {
  GramineRuntime runtime(machine_, build_image());
  runtime.boot();
  // max_threads=4 and Gramine itself uses 3 helpers + 1 main: no
  // application thread fits (the server is single-threaded, §V-B2).
  EXPECT_THROW(runtime.spawn_thread(), std::runtime_error);

  GscBuildOptions opts;
  opts.max_threads = 10;
  sim::VirtualClock clock2;
  sgx::Machine machine2(clock2);
  GramineRuntime bigger(machine2, build_image(opts));
  bigger.boot();
  for (int i = 0; i < 6; ++i) {
    EXPECT_NO_THROW(bigger.spawn_thread()) << i;
  }
  EXPECT_THROW(bigger.spawn_thread(), std::runtime_error);
}

TEST_F(LibosFixture, ColdPathChargesFaultsAndLazyOcalls) {
  GramineRuntime runtime(machine_, build_image());
  runtime.boot();
  const auto before = runtime.counters();
  const sim::Nanos t0 = clock_.now();
  runtime.touch_cold_path(8'000, 200);
  const auto delta = runtime.counters() - before;
  EXPECT_EQ(delta.ocalls, 200u);
  EXPECT_GE(delta.aex, 8'000u);
  // ~20 ms of demand faults + ~2.5 ms of lazy OCALLs: the R_I spike.
  EXPECT_GT(clock_.now() - t0, 15 * sim::kMillisecond);
  EXPECT_LT(clock_.now() - t0, 40 * sim::kMillisecond);
}

TEST_F(LibosFixture, ShutdownReleasesEpc) {
  const std::uint64_t free0 = machine_.epc().free_bytes();
  GramineRuntime runtime(machine_, build_image());
  runtime.boot();
  EXPECT_LT(machine_.epc().free_bytes(), free0);
  runtime.shutdown();
  EXPECT_EQ(machine_.epc().free_bytes(), free0);
  EXPECT_FALSE(runtime.booted());
}

TEST_F(LibosFixture, BootDifferersAcrossModules) {
  GscBuildOptions udm_opts;
  udm_opts.app_extra_bytes = 2'600'000;
  udm_opts.rootfs_seed = 1;
  GscBuildOptions amf_opts;
  amf_opts.app_extra_bytes = 0;
  amf_opts.rootfs_seed = 2;

  GramineRuntime udm(machine_, gsc_build("eudm-aka", udm_opts, test_signer()));
  const sim::Nanos t_udm = udm.boot();
  sim::VirtualClock clock2;
  sgx::Machine machine2(clock2);
  GramineRuntime amf(machine2, gsc_build("eamf-aka", amf_opts, test_signer()));
  const sim::Nanos t_amf = amf.boot();
  // Bigger application layer -> slightly slower load (Fig. 7 ordering),
  // but both stay within the same band.
  EXPECT_GT(t_udm, t_amf);
  EXPECT_LT(sim::to_s(t_udm - t_amf), 5.0);
}

}  // namespace
}  // namespace shield5g::libos
