// Monte Carlo host-thread driver (src/load/montecarlo.h): determinism
// independent of thread count, and thread-safety of the shared mutable
// state the shard runner exposes — the declassify audit counters, the
// sharded stats registry, and the process-wide X25519 comb-table cache.
// This is the workload the TSan CI stage (scripts/ci.sh tsan) runs
// under -fsanitize=thread; every test here keeps the MonteCarlo prefix
// so that stage's -R '^MonteCarlo' filter picks it up.
#include "load/montecarlo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/secret.h"
#include "common/stats.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/eph_pool.h"
#include "crypto/kdf.h"
#include "crypto/x25519.h"
#include "crypto/x25519_internal.h"
#include "load/serving.h"
#include "net/tls.h"
#include "nf/subscriber_store.h"
#include "sim/spsc_mailbox.h"

namespace shield5g {
namespace {

// One simulated seed-sweep job: derive a key from the seed and lower it
// through the transport gate, as every per-seed slice replay does.
std::uint64_t job(std::size_t seed) {
  Rng rng(static_cast<std::uint64_t>(seed) + 1);
  const SecretBytes key(rng.bytes(32));
  const Bytes derived =
      crypto::kdf(key, 0x6c, {{to_bytes("montecarlo")}});
  const Bytes out = SecretBytes(derived).declassify(
      DeclassifyReason::kTransport, nullptr);
  std::uint64_t acc = 0;
  for (std::uint8_t byte : out) acc = acc * 131 + byte;
  return acc;
}

TEST(MonteCarlo, ResultsIndependentOfThreadCount) {
  const auto serial = load::monte_carlo(96, job, 1);
  const auto parallel = load::monte_carlo(96, job, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);
}

TEST(MonteCarlo, DeclassifyCountersAccumulateAcrossThreads) {
  counters_reset();
  (void)load::monte_carlo(200, job, 8);
  // Every job declassifies exactly once; the counter map is shared
  // mutable state across all host threads (the TSan target).
  EXPECT_EQ(counter_value("secret.declassify.transport.host"), 200u);
  EXPECT_EQ(counter_value("secret.declassify.denied"), 0u);
}

TEST(MonteCarlo, ZeroJobsAndImplicitThreadCount) {
  EXPECT_TRUE(load::monte_carlo(0, job).empty());
  EXPECT_EQ(load::monte_carlo(3, job).size(), 3u);
}

class ForcedBackend {
 public:
  explicit ForcedBackend(crypto::CryptoBackend backend) {
    crypto::force_backend(backend);
  }
  ~ForcedBackend() { crypto::clear_forced_backend(); }
};

// A fixed set of curve points every thread keeps revisiting: the base
// point plus a handful of public keys (always valid u-coordinates).
// Revisits push the per-thread sighting counters past the publish
// threshold on many threads at once, so the once-per-point table
// builds and the lock-free hit path race against each other — the
// exact pattern shard workers produce on a shared deployment key.
std::vector<Bytes> comb_hammer_points() {
  std::vector<Bytes> points;
  points.push_back(Bytes(32, 0));
  points.back()[0] = 9;  // the X25519 base point: the hottest entry
  Rng rng(0xC04BULL);
  for (int i = 0; i < 5; ++i) {
    const SecretBytes scalar(rng.bytes(32));
    const crypto::X25519Key pub = crypto::x25519_public(scalar);
    points.emplace_back(pub.begin(), pub.end());
  }
  return points;
}

std::uint64_t comb_job(const std::vector<Bytes>& points, std::size_t seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 1);
  const SecretBytes scalar(rng.bytes(32));
  std::uint64_t acc = 0;
  // Six passes per point: past the build threshold within one job.
  for (int pass = 0; pass < 6; ++pass) {
    for (const Bytes& u : points) {
      const crypto::X25519Key key = crypto::x25519(scalar, u);
      // lint-audited(ct-flow: digest accumulation reads every output byte unconditionally)
      for (std::uint8_t byte : key) acc = acc * 131 + byte;
    }
  }
  return acc;
}

TEST(MonteCarlo, SharedCombCacheIsRaceFreeAndThreadCountInvariant) {
  // Pin the comb path on before any worker spawns (dispatch contract),
  // and reset the shared cache only while single-threaded.
  ForcedBackend pin(crypto::CryptoBackend::kAccelerated);
  const std::vector<Bytes> points = comb_hammer_points();

  crypto::detail::x25519_cache_reset();
  const auto serial = load::monte_carlo(
      32, [&points](std::size_t i) { return comb_job(points, i); }, 1);
  const std::size_t serial_cache = crypto::detail::x25519_cache_size();

  crypto::detail::x25519_cache_reset();
  const auto parallel = load::monte_carlo(
      32, [&points](std::size_t i) { return comb_job(points, i); }, 8);
  const std::size_t parallel_cache = crypto::detail::x25519_cache_size();

  // Same keys regardless of which thread built or reused each table.
  EXPECT_EQ(serial, parallel);
  // Every hammered point ends up published exactly once — concurrent
  // builders must dedupe, and hits must not re-publish.
  EXPECT_EQ(serial_cache, points.size());
  EXPECT_EQ(parallel_cache, points.size());
  crypto::detail::x25519_cache_reset();
}

// Wire-path pool hammer: every worker thread churns its thread-local
// slab pool (all size classes plus the oversize fall-through) with live
// nested borrows, the prepend/chop framing moves the TLS path uses, and
// a per-job fold into the shared wire.pool.* counters. The pools
// themselves are thread-local by contract; the race surface under TSan
// is the counter registry fold and the allocator underneath.
std::uint64_t pool_job(std::size_t seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 7);
  BufferPool& pool = BufferPool::local();
  // Mid-class sizes plus one past the largest class (oversize path).
  const std::size_t wants[] = {96, 600, 4000, 20000, 140000};
  std::uint64_t acc = 0;
  for (int i = 0; i < 40; ++i) {
    PooledBuffer buf = pool.acquire(wants[rng.uniform(5)] + 21, 21);
    const std::size_t n = 1 + rng.uniform(64);
    std::uint8_t* out = buf.grow(n);
    for (std::size_t b = 0; b < n; ++b) {
      out[b] = static_cast<std::uint8_t>(seed + b);
    }
    buf.prepend(5);  // record header in the headroom, then strip it
    for (int h = 0; h < 5; ++h) buf.data()[h] = 0xee;
    buf.chop_front(5);
    // A nested borrow while the first slab is live: the classes must
    // not hand out the same slab twice.
    PooledBuffer inner = pool.acquire(256, 5);
    inner.append(buf.view());
    EXPECT_NE(inner.data(), buf.data());
    for (std::size_t b = 0; b < n; ++b) acc = acc * 131 + buf.data()[b];
    for (std::size_t b = 0; b < n; ++b) {
      EXPECT_EQ(inner.data()[b], buf.data()[b]);
    }
  }
  BufferPool::publish_thread_stats();
  return acc;
}

TEST(MonteCarlo, BufferPoolHammerIsRaceFreeAndThreadCountInvariant) {
  BufferPool::publish_thread_stats();  // flush stale main-thread deltas
  counters_reset();
  const auto serial = load::monte_carlo(96, pool_job, 1);
  const std::uint64_t serial_acquires =
      counter_value("wire.pool.hit") + counter_value("wire.pool.miss");
  const std::uint64_t serial_bytes = counter_value("wire.pool.bytes");

  counters_reset();
  const auto parallel = load::monte_carlo(96, pool_job, 8);
  const std::uint64_t parallel_acquires =
      counter_value("wire.pool.hit") + counter_value("wire.pool.miss");

  // Payload contents (and so the fold of every slab's bytes) must not
  // depend on which thread ran which job.
  EXPECT_EQ(serial, parallel);
  // Hit/miss split differs per thread (each warms its own pool), but
  // total acquires and requested bytes are workload properties.
  EXPECT_EQ(serial_acquires, parallel_acquires);
  EXPECT_EQ(serial_acquires, 96u * 40u * 2u);
  EXPECT_EQ(counter_value("wire.pool.bytes"), serial_bytes);
  // The oversize class is deterministic too: it only depends on the
  // requested capacities, never on pool warmth.
  EXPECT_GT(counter_value("wire.pool.oversize"), 0u);
  counters_reset();
}

TEST(MonteCarlo, EphemeralPoolHammerIsRaceFreeAndThreadCountInvariant) {
  // One shared pool, many threads draining it concurrently: acquire()
  // must never hand the same keypair to two callers (each scalar is
  // generated once), refills must be race-free, and the generated()
  // total must be a workload property, not a schedule property.
  crypto::EphemeralKeyPool::Config cfg;
  cfg.capacity = 32;
  cfg.seed = 0xE9AULL;

  const auto hammer = [](crypto::EphemeralKeyPool& pool, unsigned threads) {
    // Commutative fold (sum of per-key folds): hand-out order differs
    // per schedule, the multiset of keys must not.
    const auto acquired = load::monte_carlo(
        96,
        [&pool](std::size_t) {
          std::uint64_t acc = 0;
          for (int i = 0; i < 5; ++i) {
            const crypto::X25519KeyPair kp = pool.acquire();
            std::uint64_t h = 0xcbf29ce484222325ULL;
            for (std::uint8_t b : kp.public_key) {
              h = (h ^ b) * 0x100000001b3ULL;
            }
            acc += h;
          }
          return acc;
        },
        threads);
    std::uint64_t sum = 0;
    for (const std::uint64_t a : acquired) sum += a;
    return sum;
  };

  counters_reset();
  crypto::EphemeralKeyPool serial_pool(cfg);
  const std::uint64_t serial = hammer(serial_pool, 1);
  const std::uint64_t serial_hits = counter_value("x25519.pool.hit");

  counters_reset();
  crypto::EphemeralKeyPool parallel_pool(cfg);
  const std::uint64_t parallel = hammer(parallel_pool, 8);

  EXPECT_EQ(serial, parallel) << "pool handed out schedule-dependent keys";
  EXPECT_EQ(serial_hits, 96u * 5u);
  EXPECT_EQ(counter_value("x25519.pool.hit"), 96u * 5u);
  // ceil(480 / 32) refills of 32 keys each, schedule-independent. The
  // refill_keys counter tallies key pairs (not refill batches), so it
  // equals generated() and is always >= the hit count.
  EXPECT_EQ(serial_pool.generated(), parallel_pool.generated());
  EXPECT_EQ(parallel_pool.generated(), 480u);
  EXPECT_EQ(counter_value("x25519.pool.refill_keys"), 480u);
  counters_reset();
}

TEST(MonteCarlo, TicketIssuerHammerIsRaceFreeAndSingleUseHolds) {
  // One issuer (one strike register, one mutex) shared by 8 threads:
  // every job issues a ticket, redeems it once (must succeed) and
  // replays it (must fail) — element-wise invariant under any schedule,
  // with concurrent rotate-free epoch reads. The TSan CI stage runs
  // this against the same mutex the Bus uses per attachment.
  net::TicketIssuer issuer{SecretView(Bytes(32, 0x66)),
                           net::TicketIssuer::kDefaultLifetimeNs};
  const auto verdicts = load::monte_carlo(
      128,
      [&issuer](std::size_t i) -> std::uint64_t {
        Rng rng(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL + 11);
        const Secret<32> secret{ByteView(rng.bytes(32))};
        const Bytes ticket = issuer.issue(secret, /*now_ns=*/0, rng);
        const auto first = issuer.redeem(ticket, 1);
        const auto replay = issuer.redeem(ticket, 1);
        // lint-audited(ct-flow: round-trip assertion compares recovered secret to the one issued)
        const bool key_match = first.has_value() && *first == secret;
        // lint-audited(ct-flow: test verdict bitmask over recovered keys; timing is not under test here)
        return (key_match ? 1u : 0u) | (replay.has_value() ? 2u : 0u);
      },
      8);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1u) << "job " << i
                               << ": redeem-once/reject-replay violated";
  }
}

TEST(MonteCarlo, ShardedCounterRegistryAccumulatesAcrossThreads) {
  counters_reset();
  // 24 distinct names spread across the registry's internal shards,
  // bumped from 8 threads, plus one name every thread fights over.
  (void)load::monte_carlo(
      96,
      [](std::size_t i) {
        counter_add("mc.shard." + std::to_string(i % 24));
        counter_add("mc.contended", 3);
        return i;
      },
      8);
  for (int n = 0; n < 24; ++n) {
    EXPECT_EQ(counter_value("mc.shard." + std::to_string(n)), 4u)
        << "name " << n;
  }
  EXPECT_EQ(counter_value("mc.contended"), 96u * 3u);
  // The merged snapshot must agree with the per-name reads.
  const auto snapshot = counters_snapshot();
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot) {
    if (name.rfind("mc.", 0) == 0) total += value;
  }
  EXPECT_EQ(total, 96u + 96u * 3u);
  counters_reset();
}

TEST(MonteCarlo, SpscMailboxHammerIsLosslessAndOrdered) {
  // The serving plane's routing fabric under the TSan stage: many
  // producer/consumer pairs streaming through tiny rings concurrently.
  // Every stream must arrive complete and in order — any missed
  // synchronisation edge in the ring shows up here as a torn value,
  // a duplicate, or a TSan report.
  const auto sums = load::monte_carlo(
      16,
      [](std::size_t seed) {
        sim::SpscMailbox<std::uint32_t> mb(4);
        const std::uint32_t count = 2000 + static_cast<std::uint32_t>(seed);
        std::uint64_t sum = 0;
        std::uint32_t expect_next = 0;
        bool ordered = true;
        std::thread consumer([&] {
          std::uint32_t v = 0;
          while (!mb.drained()) {
            while (mb.try_pop(v)) {
              ordered = ordered && v == expect_next++;
              sum += v;
            }
            std::this_thread::yield();
          }
        });
        for (std::uint32_t i = 0; i < count; ++i) {
          while (!mb.try_push(i)) std::this_thread::yield();
        }
        mb.close();
        consumer.join();
        if (!ordered || expect_next != count) return std::uint64_t(0);
        return sum;
      },
      8);
  for (std::size_t seed = 0; seed < sums.size(); ++seed) {
    const std::uint64_t count = 2000 + seed;
    EXPECT_EQ(sums[seed], count * (count - 1) / 2) << "stream " << seed;
  }
}

TEST(MonteCarlo, ColumnarStoreConcurrentReadersAgree) {
  // One provisioned store, many reader threads: the store is
  // thread-confined for writes but read-shared once provisioning ends
  // (exactly the bench's post-provision phase). Readers hash disjoint
  // row walks; every thread must see identical column bytes.
  nf::SubscriberStore store;
  constexpr std::uint32_t kRows = 256;
  for (std::uint32_t i = 0; i < kRows; ++i) {
    nf::SubscriberRecord rec;
    char msin[16];
    std::snprintf(msin, sizeof(msin), "%010u", 100000000u + i);
    rec.supi = nf::Supi::from_parts(nf::Plmn{"001", "01"}, msin);
    Rng rng(i + 1);
    rec.k = SecretBytes(rng.bytes(16));
    rec.opc = SecretBytes(rng.bytes(16));
    rec.sqn = 0x100 + 0x40ULL * i;
    store.provision(rec);
  }
  const auto digests = load::monte_carlo(
      32,
      [&store](std::size_t seed) {
        std::uint64_t acc = 0xcbf29ce484222325ULL;
        for (std::uint32_t n = 0; n < kRows; ++n) {
          const std::uint32_t row = (n + static_cast<std::uint32_t>(seed)) %
                                    kRows;
          for (const char c : store.supi(row)) {
            acc = (acc ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
          }
          acc = (acc ^ store.sqn(row)) * 0x100000001b3ULL;
        }
        return acc;
      },
      8);
  const auto serial = load::monte_carlo(
      32,
      [&store](std::size_t seed) {
        std::uint64_t acc = 0xcbf29ce484222325ULL;
        for (std::uint32_t n = 0; n < kRows; ++n) {
          const std::uint32_t row = (n + static_cast<std::uint32_t>(seed)) %
                                    kRows;
          for (const char c : store.supi(row)) {
            acc = (acc ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
          }
          acc = (acc ^ store.sqn(row)) * 0x100000001b3ULL;
        }
        return acc;
      },
      1);
  EXPECT_EQ(digests, serial);
}

TEST(MonteCarlo, ServingPlaneHammerMatchesSequentialDigest) {
  // End-to-end hammer for the TSan stage: the full sharded serving
  // plane (mailbox routing + per-slot slices on worker threads) must
  // match its own sequential digest while racing detectors watch.
  load::ServingConfig cfg;
  cfg.slice.mode = slice::IsolationMode::kContainer;
  cfg.slice.seed = 0x7a55ULL;
  cfg.ue_count = 24;
  cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_s = 1000.0;
  cfg.mailbox_capacity = 2;  // maximise producer/consumer interleaving
  const load::ServingReport sequential = load::run_serving(cfg, 1);
  const load::ServingReport wide = load::run_serving(cfg, 4);
  EXPECT_EQ(wide.digest, sequential.digest);
  EXPECT_EQ(wide.digest_lines, sequential.digest_lines);
}

}  // namespace
}  // namespace shield5g
