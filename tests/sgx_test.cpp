// SGX machine-model tests: EPC accounting, enclave lifecycle &
// measurement, transition counters, AEX timer accrual, sealing and
// attestation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sgx/attestation.h"
#include "sgx/cost_model.h"
#include "sgx/enclave.h"
#include "sgx/epc.h"
#include "sgx/machine.h"
#include "sgx/sealing.h"
#include "sim/clock.h"

namespace shield5g::sgx {
namespace {

class SgxFixture : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  Machine machine_{clock_};

  Enclave& make_enclave(const std::string& name = "test-enclave",
                        std::uint64_t size = 64ULL << 20) {
    Enclave& e = machine_.create_enclave(EnclaveConfig{name, size, 4, false});
    e.add_pages(size, Bytes{1, 2, 3});
    e.init();
    return e;
  }
};

// ---------------------------------------------------------------------
// EPC pool
// ---------------------------------------------------------------------

TEST(EpcPool, ReserveReleaseAccounting) {
  EpcPool pool(1 << 20, 4096);
  EXPECT_EQ(pool.free_bytes(), 1u << 20);
  pool.reserve(4096 * 10);
  EXPECT_EQ(pool.used_bytes(), 4096u * 10);
  pool.release(4096 * 10);
  EXPECT_EQ(pool.used_bytes(), 0u);
}

TEST(EpcPool, RoundsUpToPages) {
  EpcPool pool(1 << 20, 4096);
  pool.reserve(1);  // one byte still costs a page
  EXPECT_EQ(pool.used_bytes(), 4096u);
}

TEST(EpcPool, ExhaustionThrows) {
  EpcPool pool(8192, 4096);
  pool.reserve(8192);
  EXPECT_THROW(pool.reserve(1), std::runtime_error);
}

TEST(EpcPool, RegionReleasesOnDestruction) {
  EpcPool pool(1 << 20, 4096);
  {
    EpcRegion region(pool, 4096 * 4);
    EXPECT_EQ(pool.used_bytes(), 4096u * 4);
    EXPECT_EQ(region.total_pages(), 4u);
  }
  EXPECT_EQ(pool.used_bytes(), 0u);
}

TEST(EpcPool, FaultInAndEvict) {
  EpcPool pool(1 << 20, 4096);
  EpcRegion region(pool, 4096 * 10);
  EXPECT_EQ(region.fault_in(4), 4u);
  EXPECT_EQ(region.resident_pages(), 4u);
  EXPECT_EQ(region.fault_in(8), 6u);  // only 6 more exist
  EXPECT_EQ(region.evict(3), 3u);
  EXPECT_EQ(region.resident_pages(), 7u);
  EXPECT_EQ(region.evict(100), 7u);
}

// ---------------------------------------------------------------------
// Enclave lifecycle
// ---------------------------------------------------------------------

TEST_F(SgxFixture, LifecycleEnforced) {
  Enclave& e = machine_.create_enclave(EnclaveConfig{"x", 1 << 20, 4, false});
  EXPECT_EQ(e.state(), EnclaveState::kCreated);
  EXPECT_THROW(e.ecall_begin(), std::logic_error);    // not initialized
  EXPECT_THROW(e.measurement(), std::logic_error);
  e.add_pages(1 << 20, Bytes{1});
  e.init();
  EXPECT_EQ(e.state(), EnclaveState::kInitialized);
  EXPECT_THROW(e.init(), std::logic_error);           // double init
  EXPECT_THROW(e.add_pages(1, Bytes{}), std::logic_error);
  machine_.destroy_enclave(e);
}

TEST_F(SgxFixture, MeasurementIsDeterministicAndSensitive) {
  auto build = [this](const std::string& name, ByteView content) {
    Enclave& e =
        machine_.create_enclave(EnclaveConfig{name, 1 << 20, 4, false});
    e.add_pages(1 << 20, content);
    e.init();
    return e.measurement();
  };
  const Bytes m1 = build("same", Bytes{1, 2, 3});
  const Bytes m2 = build("same", Bytes{1, 2, 3});
  const Bytes m3 = build("same", Bytes{1, 2, 4});
  const Bytes m4 = build("other", Bytes{1, 2, 3});
  EXPECT_EQ(m1, m2);
  EXPECT_NE(m1, m3);  // content changes measurement
  EXPECT_NE(m1, m4);  // attributes change measurement
  EXPECT_EQ(m1.size(), 32u);
}

TEST_F(SgxFixture, BuildChargesPerPageCosts) {
  const sim::Nanos before = clock_.now();
  make_enclave("timing", 8ULL << 20);
  const auto& costs = machine_.costs();
  const std::uint64_t pages = (8ULL << 20) / costs.page_size;
  const sim::Nanos expected =
      pages * (costs.eadd_per_page + costs.eextend_per_page) +
      costs.einit_fixed;
  EXPECT_EQ(clock_.now() - before, expected);
}

TEST_F(SgxFixture, EcallOcallCountersAndCosts) {
  Enclave& e = make_enclave();
  const TransitionCounters before = e.counters();
  const sim::Nanos t0 = clock_.now();

  e.ecall_begin();
  e.ocall(1'000);
  e.ocall(2'000);
  e.ecall_end();

  const TransitionCounters delta = e.counters() - before;
  EXPECT_EQ(delta.eenter, 3u);  // 1 ecall + 2 ocall re-entries
  EXPECT_EQ(delta.eexit, 3u);   // 2 ocall exits + 1 ecall return
  EXPECT_EQ(delta.ecalls, 1u);
  EXPECT_EQ(delta.ocalls, 2u);

  const auto& costs = machine_.costs();
  const sim::Nanos expected = 3 * costs.eenter_ns() + 3 * costs.eexit_ns() +
                              1'000 + 2'000;
  EXPECT_EQ(clock_.now() - t0, expected);
}

TEST_F(SgxFixture, ExecuteAppliesMemoryEncryptionFactor) {
  Enclave& e = make_enclave();
  const sim::Nanos t0 = clock_.now();
  e.execute(100'000);
  const auto expected = static_cast<sim::Nanos>(
      100'000 * machine_.costs().enclave_compute_factor);
  EXPECT_EQ(clock_.now() - t0, expected);
}

TEST_F(SgxFixture, DemandFaultChargesPerPage) {
  Enclave& e = make_enclave();
  const sim::Nanos t0 = clock_.now();
  const auto aex0 = e.counters().aex;
  e.demand_fault(100);
  EXPECT_EQ(clock_.now() - t0,
            100 * machine_.costs().demand_fault_per_page);
  // 100 fault AEXs plus possibly one timer tick crossed while faulting.
  EXPECT_GE(e.counters().aex - aex0, 100u);
  EXPECT_LE(e.counters().aex - aex0, 101u);
}

TEST_F(SgxFixture, AexAccruesWithWallClockNotWorkload) {
  Enclave& e = make_enclave();
  const auto aex0 = e.counters().aex;
  clock_.advance(100 * sim::kMillisecond);  // idle time
  const auto idle_aex = e.counters().aex - aex0;
  EXPECT_EQ(idle_aex,
            100 * sim::kMillisecond / machine_.costs().aex_timer_period);

  // The same wall time with ECALL workload accrues the same AEX count.
  const auto aex1 = e.counters().aex;
  for (int i = 0; i < 50; ++i) {
    e.ecall_begin();
    e.ecall_end();
  }
  const sim::Nanos consumed = 50 * (machine_.costs().eenter_ns() +
                                    machine_.costs().eexit_ns());
  clock_.advance(100 * sim::kMillisecond - consumed);
  EXPECT_EQ(e.counters().aex - aex1, idle_aex);
}

TEST_F(SgxFixture, AexStopsAfterDestroy) {
  Enclave& e = make_enclave();
  clock_.advance(10 * sim::kMillisecond);
  machine_.destroy_enclave(e);
  // No crash and no dangling observer when time continues.
  clock_.advance(10 * sim::kMillisecond);
  EXPECT_EQ(machine_.enclave_count(), 0u);
}

TEST_F(SgxFixture, EpcExhaustionAcrossEnclaves) {
  // Machine has 16 GB combined EPC; 33 enclaves of 512 MB exceed it.
  std::vector<Enclave*> enclaves;
  for (int i = 0; i < 32; ++i) {
    enclaves.push_back(&machine_.create_enclave(
        EnclaveConfig{"e" + std::to_string(i), 512ULL << 20, 4, false}));
  }
  EXPECT_THROW(machine_.create_enclave(
                   EnclaveConfig{"overflow", 512ULL << 20, 4, false}),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Sealing
// ---------------------------------------------------------------------

TEST_F(SgxFixture, SealUnsealRoundTrip) {
  Enclave& e = make_enclave("sealer");
  Rng rng(1);
  const Bytes secret = to_bytes("subscriber key table");
  const SealedBlob blob = seal(e, secret, rng.bytes(16));
  const auto back = unseal(e, blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, secret);
  EXPECT_NE(blob.ciphertext, secret);
}

TEST_F(SgxFixture, UnsealRejectsDifferentEnclave) {
  Enclave& e1 = make_enclave("sealer-a");
  Enclave& e2 = make_enclave("sealer-b");
  Rng rng(2);
  const SealedBlob blob = seal(e1, to_bytes("secret"), rng.bytes(16));
  EXPECT_FALSE(unseal(e2, blob).has_value());
}

TEST_F(SgxFixture, UnsealRejectsTamperedBlob) {
  Enclave& e = make_enclave("sealer-c");
  Rng rng(3);
  SealedBlob blob = seal(e, to_bytes("secret"), rng.bytes(16));
  blob.ciphertext[0] ^= 1;
  EXPECT_FALSE(unseal(e, blob).has_value());
}

TEST_F(SgxFixture, UnsealRejectsOtherMachine) {
  Enclave& e = make_enclave("sealer-d");
  Rng rng(4);
  const SealedBlob blob = seal(e, to_bytes("secret"), rng.bytes(16));

  sim::VirtualClock clock2;
  Machine other(clock2, /*seed=*/999);
  Enclave& e2 = other.create_enclave(
      EnclaveConfig{"sealer-d", 64ULL << 20, 4, false});
  e2.add_pages(64ULL << 20, Bytes{1, 2, 3});
  e2.init();
  // Same measurement inputs but different platform fuse key.
  ASSERT_EQ(e2.measurement(), e.measurement());
  EXPECT_FALSE(unseal(e2, blob).has_value());
}

// ---------------------------------------------------------------------
// Attestation
// ---------------------------------------------------------------------

TEST_F(SgxFixture, QuoteVerifies) {
  Enclave& e = make_enclave("attested");
  const Bytes nonce(32, 0x77);
  const Quote quote = generate_quote(e, nonce);
  const AttestationVerifier verifier(
      Bytes(machine_.attestation_key().begin(),
            machine_.attestation_key().end()));
  EXPECT_TRUE(verifier.verify_signature(quote));
  EXPECT_TRUE(verifier.verify(quote, e.measurement()));
}

TEST_F(SgxFixture, QuoteRejectsWrongMeasurement) {
  Enclave& e = make_enclave("attested-b");
  const Quote quote = generate_quote(e, Bytes(8, 1));
  const AttestationVerifier verifier(
      Bytes(machine_.attestation_key().begin(),
            machine_.attestation_key().end()));
  Bytes wrong = e.measurement();
  wrong[0] ^= 1;
  EXPECT_FALSE(verifier.verify(quote, wrong));
}

TEST_F(SgxFixture, ForgedQuoteRejected) {
  Enclave& e = make_enclave("attested-c");
  Quote quote = generate_quote(e, Bytes(8, 1));
  quote.report_data[0] ^= 1;  // attacker changes the bound data
  const AttestationVerifier verifier(
      Bytes(machine_.attestation_key().begin(),
            machine_.attestation_key().end()));
  EXPECT_FALSE(verifier.verify_signature(quote));
}

TEST_F(SgxFixture, QuoteFromOtherPlatformRejected) {
  sim::VirtualClock clock2;
  Machine other(clock2, /*seed=*/4242);
  Enclave& e2 =
      other.create_enclave(EnclaveConfig{"rogue", 64ULL << 20, 4, false});
  e2.add_pages(64ULL << 20, Bytes{9});
  e2.init();
  const Quote quote = generate_quote(e2, Bytes{});
  // Verifier provisioned for *this* machine's attestation service.
  const AttestationVerifier verifier(
      Bytes(machine_.attestation_key().begin(),
            machine_.attestation_key().end()));
  EXPECT_FALSE(verifier.verify_signature(quote));
}

TEST_F(SgxFixture, QuoteRejectsOversizedReportData) {
  Enclave& e = make_enclave("attested-d");
  EXPECT_EQ(generate_quote(e, Bytes(64, 0)).report_data, Bytes(64, 0));
  EXPECT_THROW(generate_quote(e, Bytes(65, 0)), std::invalid_argument);
}

TEST(CostModel, CycleConversion) {
  CostModel costs;
  // 2.4 GHz: 6,500 cycles ~ 2,708 ns.
  EXPECT_EQ(costs.eenter_ns(), 2708u);
  EXPECT_EQ(costs.cycles_to_ns(2'400), 1'000u);
}

}  // namespace
}  // namespace shield5g::sgx
