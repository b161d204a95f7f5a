// Deterministic replay under the concurrent-registration engine: the
// same slice seed + workload config must produce bit-identical event
// traces and summary statistics across independent runs. This is the
// property every experiment in EXPERIMENTS.md leans on — without it the
// load benches would not be reproducible.
// The shard-pool sweeps extend the property across host threads: a
// parallel sweep must be bit-identical to the sequential one at every
// worker count (the ShardedSweep tests below).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cpu_dispatch.h"
#include "load/generator.h"
#include "load/serving.h"
#include "load/sweep.h"
#include "slice/slice.h"

namespace shield5g {
namespace {

load::LoadReport run_once(slice::IsolationMode mode, std::uint64_t slice_seed,
                          const load::LoadConfig& load_cfg) {
  slice::SliceConfig config;
  config.mode = mode;
  config.subscriber_count = load_cfg.ue_count;
  config.seed = slice_seed;
  slice::Slice slice(config);
  slice.create();
  load::LoadGenerator generator;
  return generator.run(slice, load_cfg);
}

void expect_identical(const load::LoadReport& a, const load::LoadReport& b) {
  // Trace first: a mismatch here names the first diverging event.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "first divergence at event " << i;
  }
  EXPECT_EQ(a.trace_hash, b.trace_hash);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.registered, b.registered);
  EXPECT_EQ(a.sessions_up, b.sessions_up);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failed_shed, b.failed_shed);
  EXPECT_EQ(a.failed_error, b.failed_error);
  EXPECT_EQ(a.makespan, b.makespan);
  // Bit-identical, not approximately equal: the virtual-time engine has
  // no tolerance to hide behind.
  EXPECT_EQ(a.setup_ms.values(), b.setup_ms.values());
  EXPECT_EQ(a.arrival_ms.values(), b.arrival_ms.values());
  EXPECT_EQ(a.offered_rate_per_s, b.offered_rate_per_s);
  EXPECT_EQ(a.achieved_rate_per_s, b.achieved_rate_per_s);
}

load::LoadConfig contended_config() {
  load::LoadConfig cfg;
  cfg.ue_count = 60;
  cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_s = 2000.0;  // well past the knee: queues engage
  cfg.record_trace = true;
  return cfg;
}

TEST(Determinism, ContainerReplayIsBitIdentical) {
  const load::LoadConfig cfg = contended_config();
  const auto a = run_once(slice::IsolationMode::kContainer, 0xd5ee1ULL, cfg);
  const auto b = run_once(slice::IsolationMode::kContainer, 0xd5ee1ULL, cfg);
  expect_identical(a, b);
  EXPECT_GT(a.registered, 0u);
  EXPECT_FALSE(a.trace.empty());
}

TEST(Determinism, SgxReplayIsBitIdentical) {
  // SGX single-worker modules queue hardest — the strongest replay test.
  const load::LoadConfig cfg = contended_config();
  const auto a = run_once(slice::IsolationMode::kSgx, 0xd5ee2ULL, cfg);
  const auto b = run_once(slice::IsolationMode::kSgx, 0xd5ee2ULL, cfg);
  expect_identical(a, b);
  EXPECT_GT(a.registered, 0u);
}

TEST(Determinism, BurstArrivalsReplayIsBitIdentical) {
  load::LoadConfig cfg = contended_config();
  cfg.arrivals.kind = load::ArrivalKind::kBurst;
  cfg.arrivals.burst_size = 12;
  const auto a = run_once(slice::IsolationMode::kContainer, 0xd5ee3ULL, cfg);
  const auto b = run_once(slice::IsolationMode::kContainer, 0xd5ee3ULL, cfg);
  expect_identical(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the hash actually discriminates: a different
  // workload seed must move at least the arrival instants.
  load::LoadConfig cfg = contended_config();
  const auto a = run_once(slice::IsolationMode::kContainer, 0xd5ee4ULL, cfg);
  cfg.seed ^= 1;
  const auto b = run_once(slice::IsolationMode::kContainer, 0xd5ee4ULL, cfg);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

class ForcedBackend {
 public:
  explicit ForcedBackend(crypto::CryptoBackend backend) {
    crypto::force_backend(backend);
  }
  ~ForcedBackend() { crypto::clear_forced_backend(); }
};

TEST(Determinism, ScalarAndAcceleratedBackendsReplayBitIdentically) {
  // The hardware kernels and the Edwards-comb X25519 path are pure
  // wall-clock optimizations: with the dispatch pinned to either side,
  // the same workload must produce the same bytes, trace and stats.
  const load::LoadConfig cfg = contended_config();
  load::LoadReport scalar, accel;
  {
    ForcedBackend pin(crypto::CryptoBackend::kScalar);
    scalar = run_once(slice::IsolationMode::kSgx, 0xd5ee6ULL, cfg);
  }
  {
    ForcedBackend pin(crypto::CryptoBackend::kAccelerated);
    accel = run_once(slice::IsolationMode::kSgx, 0xd5ee6ULL, cfg);
  }
  expect_identical(scalar, accel);
  EXPECT_GT(scalar.registered, 0u);
}

TEST(Determinism, BackendReplayHoldsUnderContainerMode) {
  const load::LoadConfig cfg = contended_config();
  load::LoadReport scalar, accel;
  {
    ForcedBackend pin(crypto::CryptoBackend::kScalar);
    scalar = run_once(slice::IsolationMode::kContainer, 0xd5ee7ULL, cfg);
  }
  {
    ForcedBackend pin(crypto::CryptoBackend::kAccelerated);
    accel = run_once(slice::IsolationMode::kContainer, 0xd5ee7ULL, cfg);
  }
  expect_identical(scalar, accel);
}

TEST(Determinism, TraceHashIndependentOfRecording) {
  // record_trace only keeps the lines; it must not change the hash.
  load::LoadConfig cfg = contended_config();
  const auto a = run_once(slice::IsolationMode::kContainer, 0xd5ee5ULL, cfg);
  cfg.record_trace = false;
  const auto b = run_once(slice::IsolationMode::kContainer, 0xd5ee5ULL, cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_TRUE(b.trace.empty());
}

// A small but heterogeneous sweep: every isolation mode, two rates,
// two seeds — twelve independent shards with queueing engaged.
std::vector<load::SweepCase> sharded_cases() {
  std::vector<load::SweepCase> cases;
  const slice::IsolationMode modes[] = {slice::IsolationMode::kMonolithic,
                                        slice::IsolationMode::kContainer,
                                        slice::IsolationMode::kSgx};
  for (const slice::IsolationMode mode : modes) {
    for (const double rate : {400.0, 2000.0}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        load::SweepCase c;
        c.label = std::string(slice::isolation_mode_name(mode)) + "/" +
                  std::to_string(static_cast<int>(rate)) + "/" +
                  std::to_string(seed);
        c.slice.mode = mode;
        c.slice.subscriber_count = 40;
        c.slice.seed = 0xF00DULL + seed;
        c.load.ue_count = 40;
        c.load.arrivals.kind = load::ArrivalKind::kPoisson;
        c.load.arrivals.rate_per_s = rate;
        c.load.seed = 0xBEEFULL + seed;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

void expect_sweeps_identical(const std::vector<load::SweepResult>& a,
                             const std::vector<load::SweepResult>& b,
                             const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  // The digest is the contract the CI diff enforces; the per-field
  // comparison below names the first diverging case when it breaks.
  EXPECT_EQ(load::sweep_digest(a), load::sweep_digest(b)) << what;
  const auto lines_a = load::sweep_digest_lines(a);
  const auto lines_b = load::sweep_digest_lines(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(lines_a[i], lines_b[i]) << what << ": case " << i;
    EXPECT_EQ(a[i].report.trace_hash, b[i].report.trace_hash)
        << what << ": case " << i;
    EXPECT_EQ(a[i].report.setup_ms.values(), b[i].report.setup_ms.values())
        << what << ": case " << i;
    EXPECT_EQ(a[i].shed, b[i].shed) << what << ": case " << i;
    ASSERT_EQ(a[i].queues.size(), b[i].queues.size()) << what;
    for (std::size_t q = 0; q < a[i].queues.size(); ++q) {
      EXPECT_EQ(a[i].queues[q].admitted, b[i].queues[q].admitted);
      EXPECT_EQ(a[i].queues[q].rejected, b[i].queues[q].rejected);
      EXPECT_EQ(a[i].queues[q].total_wait, b[i].queues[q].total_wait);
    }
  }
}

TEST(Determinism, ShardedSweepMatchesSequentialAtEveryWorkerCount) {
  // The tentpole property: worker count is a pure wall-clock knob. The
  // sequential reference (workers=1, inline, no pool) must be
  // reproduced bit-for-bit by the threaded pool at 2 and 4 workers —
  // even on a single core, where the threads interleave arbitrarily.
  const std::vector<load::SweepCase> cases = sharded_cases();
  const std::vector<load::SweepResult> sequential = load::run_sweep(cases, 1);
  ASSERT_EQ(sequential.size(), cases.size());
  for (const unsigned workers : {2u, 4u}) {
    const std::vector<load::SweepResult> parallel =
        load::run_sweep(cases, workers);
    expect_sweeps_identical(sequential, parallel,
                            workers == 2 ? "workers=2" : "workers=4");
  }
}

TEST(Determinism, BackToBackSweepsStartCold) {
  // Each case builds a fresh slice, and ServiceQueue::reset() clears
  // occupancy between runs inside a slice — so repeating the same sweep
  // in one process must not inherit warm queues, caches or counters
  // from the previous round, sequentially or threaded.
  const std::vector<load::SweepCase> cases = sharded_cases();
  const std::vector<load::SweepResult> first = load::run_sweep(cases, 2);
  const std::vector<load::SweepResult> second = load::run_sweep(cases, 2);
  expect_sweeps_identical(first, second, "second round");
  const std::vector<load::SweepResult> sequential = load::run_sweep(cases, 1);
  expect_sweeps_identical(first, sequential, "sequential after threaded");
}

TEST(Determinism, ResumptionSweepIsSelfConsistentAtEveryWorkerCount) {
  // With TLS resumption + the ephemeral-key pool enabled, the sweep is
  // no longer byte-identical to the legacy path (different wire bytes
  // by design) — but it must still be deterministic: 1, 2 and 4 workers
  // all reproduce the same digests, traces and queue stats.
  std::vector<load::SweepCase> cases = sharded_cases();
  for (auto& c : cases) {
    c.slice.tls_resumption = true;
    c.slice.eph_pool = true;
  }
  const std::vector<load::SweepResult> sequential = load::run_sweep(cases, 1);
  ASSERT_EQ(sequential.size(), cases.size());
  for (const unsigned workers : {2u, 4u}) {
    const std::vector<load::SweepResult> parallel =
        load::run_sweep(cases, workers);
    expect_sweeps_identical(sequential, parallel,
                            workers == 2 ? "resumption workers=2"
                                         : "resumption workers=4");
  }
}

TEST(Determinism, ResumptionOffPathIsUntouchedByAnOnPathRun) {
  // Bit-identity oracle: a flags-off sweep must produce the same digest
  // whether or not a flags-on sweep ran first in the same process (no
  // cross-contamination through pools, counters or thread state) — and
  // the flags must actually change the bytes when enabled.
  const std::vector<load::SweepCase> off_cases = sharded_cases();
  const std::uint64_t off_before =
      load::sweep_digest(load::run_sweep(off_cases, 2));

  std::vector<load::SweepCase> on_cases = sharded_cases();
  for (auto& c : on_cases) {
    c.slice.tls_resumption = true;
    c.slice.eph_pool = true;
  }
  const std::uint64_t on_digest =
      load::sweep_digest(load::run_sweep(on_cases, 2));
  EXPECT_NE(on_digest, off_before)
      << "resumption flags did not move the digest — oracle proves nothing";

  const std::uint64_t off_after =
      load::sweep_digest(load::run_sweep(off_cases, 2));
  EXPECT_EQ(off_before, off_after);
}

TEST(Determinism, PoolAloneReplaysBitIdentically) {
  // The pool changes which RNG stream feeds the ephemerals, so its
  // replay property deserves its own pin: same config, two runs, same
  // everything — at 1 and 4 workers.
  std::vector<load::SweepCase> cases = sharded_cases();
  for (auto& c : cases) c.slice.eph_pool = true;
  const std::vector<load::SweepResult> a = load::run_sweep(cases, 1);
  const std::vector<load::SweepResult> b = load::run_sweep(cases, 4);
  expect_sweeps_identical(a, b, "pool-only workers=4");
}

// ---- Co-located fast path (DESIGN.md §18) ------------------------------

// The monolithic cases of `shard_scaling --smoke` (three SBI policies x
// two rates x two seeds, 40 UEs), none of which sheds, plus one
// resume+pool case whose 4-deep VNF queues make the AMF shed UEs at
// NGAP ingress. (SBI-level sheds never occur in these runs: the AMF's
// own queue bounds what reaches the servers behind it, so the
// co-located 503 is FastpathParity.ShedRequestIsByteIdentical's job.)
std::vector<load::SweepCase> monolithic_smoke_cases() {
  struct Policy {
    const char* tag;
    bool pool;
    bool burst;
  };
  const Policy policies[] = {{"legacy", false, false},
                             {"resume+pool", true, false},
                             {"resume+pool burst=8", true, true}};
  std::vector<load::SweepCase> cases;
  for (const Policy& policy : policies) {
    for (const double rate : {200.0, 1600.0}) {
      for (std::uint64_t seed = 0; seed < 2; ++seed) {
        load::SweepCase c;
        c.label = std::string(policy.tag) + " rate=" +
                  std::to_string(static_cast<int>(rate)) +
                  " seed=" + std::to_string(seed);
        c.slice.mode = slice::IsolationMode::kMonolithic;
        c.slice.subscriber_count = 40;
        c.slice.seed = 0x5CA1EULL + seed;
        c.slice.tls_resumption = policy.pool;
        c.slice.eph_pool = policy.pool;
        c.load.ue_count = 40;
        c.load.arrivals.kind = policy.burst ? load::ArrivalKind::kBurst
                                            : load::ArrivalKind::kPoisson;
        c.load.arrivals.burst_size = 8;
        c.load.arrivals.rate_per_s = rate;
        c.load.seed = 0xD1CEULL + seed;
        c.load.record_trace = true;
        cases.push_back(std::move(c));
      }
    }
  }
  load::SweepCase shedding = cases[6];  // resume+pool rate=1600 seed=0
  shedding.label += " queue=4";
  shedding.slice.vnf_queue_capacity = 4;
  cases.push_back(std::move(shedding));
  return cases;
}

struct FastpathRun {
  load::LoadReport report;
  std::vector<load::QueueSnapshot> queues;
  std::uint64_t hits = 0;
};

FastpathRun run_with_fastpath(const load::SweepCase& c, bool fastpath) {
  slice::Slice slice(c.slice);
  slice.bus().set_fastpath(fastpath);
  slice.create();
  FastpathRun out;
  load::LoadGenerator generator;
  out.report = generator.run(slice, c.load);
  out.queues = load::queue_snapshots(slice);
  out.hits = slice.bus().fastpath_hits();
  return out;
}

TEST(Determinism, FastPathOnAndOffReplayBitIdentically) {
  // The co-located fast path skips record work, nothing else: whole
  // runs with it on (the default) must reproduce the wire path — the
  // oracle — in every trace event, latency sample and queue counter the
  // sweep digest folds, with and without shedding.
  const std::vector<load::SweepCase> cases = monolithic_smoke_cases();
  for (const load::SweepCase& c : cases) {
    SCOPED_TRACE(c.label);
    const FastpathRun on = run_with_fastpath(c, true);
    const FastpathRun off = run_with_fastpath(c, false);
    expect_identical(on.report, off.report);
    ASSERT_EQ(on.queues.size(), off.queues.size());
    for (std::size_t q = 0; q < on.queues.size(); ++q) {
      const load::QueueSnapshot& a = on.queues[q];
      const load::QueueSnapshot& b = off.queues[q];
      EXPECT_EQ(a.server, b.server);
      EXPECT_EQ(a.workers, b.workers) << a.server;
      EXPECT_EQ(a.admitted, b.admitted) << a.server;
      EXPECT_EQ(a.queued, b.queued) << a.server;
      EXPECT_EQ(a.rejected, b.rejected) << a.server;
      EXPECT_EQ(a.total_wait, b.total_wait) << a.server;
    }
    EXPECT_GT(on.hits, 0u);
    EXPECT_EQ(off.hits, 0u);
    EXPECT_GT(on.report.registered, 0u);
    if (&c == &cases.back()) {
      EXPECT_GT(on.report.failed_shed, 0u);
    }
  }
}

// ---- Sharded serving plane (load/serving.h) ---------------------------

load::ServingConfig serving_config() {
  load::ServingConfig cfg;
  cfg.slice.mode = slice::IsolationMode::kContainer;
  cfg.slice.seed = 0x5e11aULL;
  cfg.ue_count = 48;
  cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_s = 1500.0;  // queues engage inside the slots
  return cfg;
}

TEST(Determinism, ServingPlaneDigestIdenticalAcrossShardCounts) {
  // The tentpole property: the merged serving digest is a function of
  // the partition, never of the execution width. 1/2/4/8 workers over
  // the same 8-slot partition must agree byte for byte.
  const load::ServingConfig cfg = serving_config();
  const load::ServingReport base = load::run_serving(cfg, 1);
  EXPECT_EQ(base.shards, 1u);
  EXPECT_GT(base.registered, 0u);
  EXPECT_EQ(base.routed, cfg.ue_count);
  ASSERT_EQ(base.slots.size(), cfg.slots);
  for (const unsigned shards : {2u, 4u, 8u}) {
    const load::ServingReport wide = load::run_serving(cfg, shards);
    EXPECT_EQ(wide.shards, shards);
    EXPECT_EQ(wide.digest, base.digest) << "shards=" << shards;
    ASSERT_EQ(wide.digest_lines.size(), base.digest_lines.size());
    for (std::size_t i = 0; i < base.digest_lines.size(); ++i) {
      EXPECT_EQ(wide.digest_lines[i], base.digest_lines[i])
          << "shards=" << shards << " slot line " << i;
    }
    EXPECT_EQ(wide.registered, base.registered);
    EXPECT_EQ(wide.completed, base.completed);
    EXPECT_EQ(wide.sessions_up, base.sessions_up);
    EXPECT_EQ(wide.failed, base.failed);
    EXPECT_EQ(wide.shed, base.shed);
  }
}

TEST(Determinism, ServingPlaneColdStartReplays) {
  // Back-to-back runs in one process: no state may leak between plane
  // instantiations (pools, counters, thread-local stage clocks).
  const load::ServingConfig cfg = serving_config();
  const load::ServingReport a = load::run_serving(cfg, 2);
  const load::ServingReport b = load::run_serving(cfg, 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest_lines, b.digest_lines);
}

TEST(Determinism, ServingPlaneBackpressureIsDigestNeutral) {
  // A tiny mailbox forces the router to spin; back-pressure is a wall
  // clock phenomenon and must not move a single byte of the digest.
  const load::ServingConfig roomy = serving_config();
  load::ServingConfig tight = roomy;
  tight.mailbox_capacity = 2;
  const load::ServingReport a = load::run_serving(roomy, 4);
  const load::ServingReport b = load::run_serving(tight, 4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest_lines, b.digest_lines);
}

TEST(Determinism, ServingPlaneDigestDiscriminates) {
  // Same guard as the sweep digest: seeds must move the bytes, or
  // ServingPlaneDigestIdenticalAcrossShardCounts proves nothing.
  const load::ServingConfig cfg = serving_config();
  const std::uint64_t base = load::run_serving(cfg, 2).digest;

  load::ServingConfig arrivals_moved = cfg;
  arrivals_moved.seed ^= 1;
  EXPECT_NE(load::run_serving(arrivals_moved, 2).digest, base);

  load::ServingConfig creds_moved = cfg;
  creds_moved.slice.seed ^= 1;
  EXPECT_NE(load::run_serving(creds_moved, 2).digest, base);
}

TEST(Determinism, SweepDigestDiscriminates) {
  // The digest must move when anything deterministic moves, or the CI
  // byte-for-byte diff proves nothing.
  std::vector<load::SweepCase> cases = sharded_cases();
  const std::uint64_t base = load::sweep_digest(load::run_sweep(cases, 1));
  cases[0].load.seed ^= 1;
  const std::uint64_t moved = load::sweep_digest(load::run_sweep(cases, 1));
  EXPECT_NE(base, moved);
}

}  // namespace
}  // namespace shield5g
