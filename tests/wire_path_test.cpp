// Zero-copy wire-path regression tests: once pools and tables are warm,
// a one-shot exchange (its own connection and TLS handshake included)
// must not copy service-name strings (the bus resolves servers and
// resumption tickets through interned ids), with or without resumption,
// and its residual heap traffic must stay under a pinned ceiling — the
// pooled record path and interned headers are what keep it there. At
// workload scale, a small registration sweep pins that the buffer pool,
// TLS resumption, the ephemeral-key pool and the co-located fast path
// all stay hot. The same probe pins that bulk population provisioning
// allocates per arena chunk, not per subscriber.
//
// The allocation probe overrides global operator new/delete for this
// test binary only and counts calls; it never changes behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/secret.h"
#include "common/stats.h"
#include "crypto/op_count.h"
#include "load/sweep.h"
#include "net/bus.h"
#include "net/env.h"
#include "net/http.h"
#include "net/router.h"
#include "sim/clock.h"
#include "slice/slice.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace shield5g::net {
namespace {

constexpr int kWarmExchanges = 64;
constexpr int kMeasuredExchanges = 20;

HttpRequest probe_request() {
  HttpRequest req;
  req.method = Method::kPost;
  req.path = "/probe";
  req.headers.set("content-type", "application/json");
  req.body = "{\"supi\":\"imsi-001010000000001\"}";
  return req;
}

class WirePathFixture : public ::testing::Test {
 protected:
  WirePathFixture() : long_name_(200, 'n') {}

  void SetUp() override {
    short_server_ = make_server("amf");
    long_server_ = make_server(long_name_);
  }

  std::unique_ptr<Server> make_server(const std::string& name) {
    auto server = std::make_unique<Server>(name, env_, bus_.costs());
    server->router().add(Method::kPost, "/probe",
                         [](const RequestView& req, const PathParams&) {
                           return HttpResponse::json(200,
                                                     std::string(req.body));
                         });
    bus_.attach(*server);
    return server;
  }

  // Allocations across `count` warm exchanges to `to`.
  std::uint64_t measure(const std::string& to, int count) {
    const HttpRequest req = probe_request();
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < count; ++i) {
      const auto exchange = bus_.request("client", to, req);
      EXPECT_TRUE(exchange.transport_ok);
      EXPECT_EQ(exchange.response.status, 200);
    }
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  }

  // Warms both targets identically (pools and interned tables
  // populated, sample vectors grown past the measurement window), then
  // expects the same allocation count for the same number of exchanges
  // against each: if any per-request path copied the service name
  // (string-pair keys, per-request map lookups building std::string),
  // the 200-char name would cost extra allocations and the counts
  // diverge.
  void expect_name_length_independent() {
    measure("amf", kWarmExchanges);
    measure(long_name_, kWarmExchanges);
    const std::uint64_t short_allocs = measure("amf", kMeasuredExchanges);
    const std::uint64_t long_allocs = measure(long_name_, kMeasuredExchanges);
    EXPECT_EQ(short_allocs, long_allocs)
        << "service-name length leaked into the per-exchange wire path";
  }

  sim::VirtualClock clock_;
  Bus bus_{clock_};
  HostEnv env_{clock_};
  std::string long_name_;
  std::unique_ptr<Server> short_server_;
  std::unique_ptr<Server> long_server_;
};

// Under resumption every exchange also interns the client label and
// keys the ticket cache on the packed (from, to) id pair.
class ResumingWirePathFixture : public WirePathFixture {
 protected:
  void SetUp() override {
    bus_.set_resumption(true);  // before attach: every server gets an issuer
    WirePathFixture::SetUp();
  }
};

TEST_F(WirePathFixture, WarmExchangeAllocationsIndependentOfNameLength) {
  expect_name_length_independent();
}

TEST_F(ResumingWirePathFixture,
       WarmExchangeAllocationsIndependentOfNameLength) {
  expect_name_length_independent();
}

TEST_F(WirePathFixture, WarmExchangeAllocationsUnderCeiling) {
  measure("amf", kWarmExchanges);
  const std::uint64_t allocs = measure("amf", kMeasuredExchanges);
  const double per_exchange =
      static_cast<double>(allocs) / kMeasuredExchanges;
  // A warm one-shot legacy exchange measures ~21 allocations: ~19 for
  // its connection's TLS handshake, the rest the response body string
  // and occasional Samples growth; the record path itself is pooled
  // and the headers interned. A regression that re-copies records or
  // headers adds tens of allocations per exchange — the ceiling leaves
  // room only for container doubling, not for copies.
  EXPECT_LE(per_exchange, 27.0);
}

// Allocations made by constructing and creating a population-mode
// slice of ids [0, n), slice teardown included.
std::uint64_t population_slice_allocs(std::uint32_t n) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kMonolithic;
  cfg.population.resize(n);
  std::iota(cfg.population.begin(), cfg.population.end(), 0u);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  {
    slice::Slice s(std::move(cfg));
    s.create();
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(WirePathProvisioning, BulkProvisionAllocatesPerChunkNotPerRow) {
  // Bulk provisioning derives each row on the stack and inserts it into
  // reserved columns; only the identity arena grows, one 64 KiB chunk
  // per ~4K SUPIs. Doubling the population may therefore add a few
  // allocations, never one per row. 3001 rows is no multiple of any
  // power-of-two look-ahead distance, so the loop's tail runs too.
  constexpr std::uint32_t kRows = 3001;
  population_slice_allocs(kRows);  // process-once set-up
  const std::uint64_t once = population_slice_allocs(kRows);
  const std::uint64_t twice = population_slice_allocs(2 * kRows);
  EXPECT_LE(twice, once + 16) << once << " allocations for " << kRows
                              << " rows, " << twice << " for " << 2 * kRows;
}

// Global counters accumulate over every test in this binary, so the
// workload case reads them as deltas from its own start.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : name_(name), start_(counter_value(name)) {}
  std::uint64_t value() const { return counter_value(name_) - start_; }

 private:
  const char* name_;
  std::uint64_t start_;
};

load::SweepCase workload_case(slice::IsolationMode mode, double rate_per_s) {
  constexpr std::uint32_t kUes = 60;
  load::SweepCase c;
  c.label = slice::isolation_mode_name(mode);
  c.slice.mode = mode;
  c.slice.subscriber_count = kUes;
  c.slice.tls_resumption = true;
  c.slice.eph_pool = true;
  c.load.ue_count = kUes;
  c.load.arrivals.kind = load::ArrivalKind::kPoisson;
  c.load.arrivals.rate_per_s = rate_per_s;
  return c;
}

TEST(WirePathWorkload, PoolsResumptionAndFastPathStayHot) {
  BufferPool::publish_thread_stats();  // earlier tests' pool traffic
  const CounterDelta pool_hit("wire.pool.hit");
  const CounterDelta pool_miss("wire.pool.miss");
  const CounterDelta resume_hit("tls.resume.hit");
  const CounterDelta resume_miss("tls.resume.miss");
  const CounterDelta resume_reject("tls.resume.reject");
  const CounterDelta key_hit("x25519.pool.hit");
  const CounterDelta key_refill("x25519.pool.refill_keys");

  // One 60-UE slice per isolation mode at 1000/s, resumption and the
  // ephemeral-key pool on, run inline on this thread.
  const slice::IsolationMode modes[] = {slice::IsolationMode::kMonolithic,
                                        slice::IsolationMode::kContainer,
                                        slice::IsolationMode::kSgx};
  std::vector<load::SweepCase> cases;
  for (const slice::IsolationMode mode : modes) {
    cases.push_back(workload_case(mode, 1000.0));
  }
  const std::vector<load::SweepResult> sweep = load::run_sweep(cases, 1);

  // Per-registration costs on a warm wire path: the first fresh
  // container slice warms this thread's pools and allocator arenas, the
  // second is counted. Only LoadGenerator::run is inside the window.
  const load::SweepCase per_reg =
      workload_case(slice::IsolationMode::kContainer, 2000.0);
  double allocs_per_reg = 0.0;
  double x25519_per_reg = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    slice::Slice slice(per_reg.slice);
    slice.create();
    load::LoadGenerator generator;
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t mults_before = crypto::op_counts().x25519_ops;
    const load::LoadReport report = generator.run(slice, per_reg.load);
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t mults = crypto::op_counts().x25519_ops - mults_before;
    if (pass == 1) {
      ASSERT_GT(report.registered, 0u);
      allocs_per_reg = static_cast<double>(allocs) / report.registered;
      x25519_per_reg = static_cast<double>(mults) / report.registered;
    }
  }
  BufferPool::publish_thread_stats();

  // Zero-copy wire path: pooled buffers are actually taken (hits dwarf
  // misses once the per-thread arenas are warm), and the steady-state
  // allocation rate does not creep back up; the ceiling sits ~15% above
  // the 1537 allocs/registration measured when it was set.
  const std::uint64_t misses = std::max<std::uint64_t>(pool_miss.value(), 1);
  EXPECT_GE(pool_hit.value(), 1000u);
  EXPECT_GE(pool_hit.value(), 100 * misses)
      << "wire pool not hot: " << pool_hit.value() << " hits / "
      << pool_miss.value() << " misses";
  EXPECT_LE(allocs_per_reg, 1760.0);

  // TLS resumption: warm registrations resume (hits dwarf misses and
  // rejects once every UE holds a ticket), and cold handshakes amortise
  // to ~2.2 scalar mults per registration; a silent fallback to full
  // handshakes (~11 per registration) trips the ceiling of 6.
  const std::uint64_t not_resumed = std::max<std::uint64_t>(
      resume_miss.value() + resume_reject.value(), 1);
  EXPECT_GE(resume_hit.value(), 1000u);
  EXPECT_GE(resume_hit.value(), 20 * not_resumed)
      << "tls resumption not hot: " << resume_hit.value() << " hits / "
      << resume_miss.value() << " misses / " << resume_reject.value()
      << " rejects";
  EXPECT_LE(x25519_per_reg, 6.0);

  // Ephemeral-key pool: the serving path hits it, and every hit hands
  // out a key a refill minted earlier, so hit > refill_keys means the
  // counters themselves broke.
  EXPECT_GE(key_hit.value(), 100u);
  EXPECT_GE(key_refill.value(), key_hit.value());

  // Shed vs error: saturation drops are expected load shedding, real
  // faults are not. The co-located fast path fires in monolithic mode
  // and never across a container or enclave boundary.
  ASSERT_EQ(sweep.size(), std::size(modes));
  for (std::size_t m = 0; m < sweep.size(); ++m) {
    const load::LoadReport& r = sweep[m].report;
    SCOPED_TRACE(sweep[m].label);
    EXPECT_EQ(r.failed, r.failed_shed + r.failed_error);
    EXPECT_EQ(r.failed_error, 0u);
    if (modes[m] == slice::IsolationMode::kMonolithic) {
      EXPECT_GT(sweep[m].fastpath_hits, 0u);
    } else {
      EXPECT_EQ(sweep[m].fastpath_hits, 0u);
    }
  }
}

// Counters stay cheap enough to leave on: bumping a counter that
// exists looks its name up as a view, and a declassify takes its
// counter name from a static table, so neither builds a std::string.
// Both names here are past the 15 characters a std::string holds
// without the heap.
TEST(WirePathTelemetry, RebumpingAnExistingCounterAllocatesNothing) {
  counter_add("wire_path.telemetry.rebump");  // the first bump creates it
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) counter_add("wire_path.telemetry.rebump");
  counter_max("wire_path.telemetry.rebump", 7);
  EXPECT_EQ(counter_value("wire_path.telemetry.rebump"), 101u);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(WirePathTelemetry, DeclassifyAllocatesOnlyItsOutput) {
  const SecretBytes key(Bytes(16, 0x5a));
  (void)key.declassify(DeclassifyReason::kTransport, nullptr);  // creates
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Bytes out = key.declassify(DeclassifyReason::kTransport, nullptr);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 1u);
  EXPECT_EQ(out, Bytes(16, 0x5a));
}

}  // namespace
}  // namespace shield5g::net
