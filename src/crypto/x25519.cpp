#include "crypto/x25519.h"

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "common/thread_annotations.h"
#include <stdexcept>
#include <vector>

#include "common/hot_stage.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/fe25519.h"
#include "crypto/op_count.h"
#include "crypto/x25519_comb.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {

namespace {

using namespace fe25519;

void clamp(std::uint8_t k[32], SecretView scalar) {
  std::memcpy(k, scalar.unsafe_bytes().data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
}

// RFC 7748 Montgomery ladder over the shared fe25519 arithmetic,
// stopping short of the final inversion: u = num/den.
void ladder_fraction(const std::uint8_t k[32], ByteView u, Fe& num, Fe& den) {
  const Fe x1 = fe_load(u.data());
  Fe x2{1, 0, 0, 0, 0}, z2{0, 0, 0, 0, 0};
  Fe x3 = x1, z3{1, 0, 0, 0, 0};
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);
  num = x2;
  den = z2;
}

X25519Key ladder(const std::uint8_t k[32], ByteView u) {
  Fe num, den;
  ladder_fraction(k, u, num, den);
  const Fe out = fe_mul(num, fe_invert(den));
  X25519Key result{};
  fe_store(result.data(), out);
  return result;
}

// Comb-table cache, shared across every shard worker of a parallel
// sweep. Registrations hammer a stable working set — the base point,
// the home network's ECIES key, and every attached server's TLS
// identity — and under the shard pool (sim/shard_pool.h) all workers
// hammer the *same* points, so a table built once serves the process.
//
// Concurrency layout, from hot to cold:
//  * Hit path: a fixed array of published slots, each an atomic pointer
//    to an immutable entry (point + built table, or a remembered
//    unliftable twist point). Readers scan count-then-slots with one
//    acquire load and take no lock — the hit path is wait-free.
//  * Miss path: sighting counts live in a small per-thread candidate
//    LRU (the pre-PR design), so one-shot ephemeral points never touch
//    shared state and never contend.
//  * Build path: a point that crosses kBuildThreshold sightings in one
//    thread takes the publish mutex, re-checks the shared slots (some
//    other worker may have won the race), builds the ~60 KiB table
//    exactly once per point process-wide, and release-publishes it.
// Published entries are immutable until detail::x25519_cache_reset(),
// a single-threaded test hook. When all slots fill (64 tables ≈ 4 MiB)
// later points simply keep the ladder — candidates remember giving up.
constexpr int kBuildThreshold = 4;
constexpr std::size_t kMaxCandidates = 32;
constexpr std::size_t kSharedSlots = 64;

bool same_u(const std::array<std::uint8_t, 32>& a, const std::uint8_t* b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

struct SharedEntry {
  std::array<std::uint8_t, 32> u{};
  detail::CombTablePtr table;  // null = unliftable twist point, memoized
};

struct SharedCache {
  // Atomic: comb_lookup readers scan lock-free; publication (slot
  // store + count bump) happens only under publish_mutex.
  std::array<std::atomic<const SharedEntry*>, kSharedSlots> slots
      SHIELD_GUARDED_BY(publish_mutex){};
  std::atomic<std::size_t> count SHIELD_GUARDED_BY(publish_mutex){0};
  std::mutex publish_mutex;
};

SharedCache& shared_cache() {
  // Leaked on purpose: workers may run x25519 during late teardown.
  static SharedCache* cache = new SharedCache;
  return *cache;
}

// Wait-free reader: the release store on `count` orders the slot and
// entry writes before it, so any slot below an acquired count is fully
// published.
const SharedEntry* shared_find(const std::uint8_t* u) {
  SharedCache& cache = shared_cache();
  const std::size_t n = cache.count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const SharedEntry* entry = cache.slots[i].load(std::memory_order_relaxed);
    if (entry != nullptr && same_u(entry->u, u)) return entry;
  }
  return nullptr;
}

// Builds and publishes the table for `u` (or its unliftable verdict).
// Returns the published entry, or nullptr when the cache is full.
const SharedEntry* shared_publish(const std::uint8_t* u) {
  SharedCache& cache = shared_cache();
  const std::lock_guard<std::mutex> lock(cache.publish_mutex);
  if (const SharedEntry* raced = shared_find(u)) return raced;  // lost race
  const std::size_t n = cache.count.load(std::memory_order_relaxed);
  if (n >= kSharedSlots) return nullptr;
  auto* entry = new SharedEntry;
  std::memcpy(entry->u.data(), u, 32);
  entry->table = detail::comb_build(u);  // null when the point won't lift
  cache.slots[n].store(entry, std::memory_order_relaxed);
  cache.count.store(n + 1, std::memory_order_release);
  return entry;
}

// Per-thread sighting counts for points not (yet) published. Eviction
// is least-recently-used: one-shot ephemerals churn through the tail
// while repeated points accumulate uses and graduate to the shared
// slots.
struct Candidate {
  std::array<std::uint8_t, 32> u;
  int uses = 0;
  std::uint64_t last_use = 0;
  bool gave_up = false;  // shared cache was full at graduation time
};

thread_local std::vector<Candidate> t_candidates;
thread_local std::uint64_t t_comb_tick = 0;

// Returns the table to use for `u`, or nullptr to take the ladder.
const detail::CombTable* comb_lookup(ByteView u) {
  if (const SharedEntry* entry = shared_find(u.data())) {
    return entry->table.get();
  }
  for (auto& cand : t_candidates) {
    if (!same_u(cand.u, u.data())) continue;
    cand.last_use = ++t_comb_tick;
    if (cand.gave_up) return nullptr;
    if (++cand.uses < kBuildThreshold) return nullptr;
    const SharedEntry* entry = shared_publish(u.data());
    if (entry == nullptr) {
      cand.gave_up = true;
      return nullptr;
    }
    return entry->table.get();
  }
  Candidate fresh;
  std::memcpy(fresh.u.data(), u.data(), 32);
  fresh.uses = 1;
  fresh.last_use = ++t_comb_tick;
  if (t_candidates.size() < kMaxCandidates) {
    t_candidates.push_back(fresh);
    return nullptr;
  }
  Candidate* victim = &t_candidates.front();
  for (auto& cand : t_candidates) {
    if (cand.last_use < victim->last_use) victim = &cand;
  }
  *victim = fresh;
  return nullptr;
}

// One scalar multiplication up to (not including) its final inversion,
// taking the comb fast path when a table exists for `u`.
void mult_fraction(const std::uint8_t k[32], ByteView u, Fe& num, Fe& den) {
  const detail::CombTable* table =
      active_backend() == CryptoBackend::kAccelerated ? comb_lookup(u)
                                                      : nullptr;
  if (table != nullptr) {
    detail::comb_eval_fraction(*table, k, num, den);
  } else {
    ladder_fraction(k, u, num, den);
  }
}

}  // namespace

X25519Key x25519(SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  ScopedStage timer(HotStage::kCrypto);
  ++op_counts().x25519_ops;
  std::uint8_t k[32];
  clamp(k, scalar);

  Fe num, den;
  mult_fraction(k, u, num, den);
  X25519Key result{};
  fe_store(result.data(), fe_mul(num, fe_invert(den)));
  secure_zero(k, sizeof(k));
  return result;
}

X25519KeyPair x25519_keypair_shared(ByteView random32, ByteView peer_public,
                                    X25519Key& shared_out) {
  if (random32.size() != 32 || peer_public.size() != 32) {
    throw std::invalid_argument("x25519_keypair_shared: need 32-byte inputs");
  }
  ScopedStage timer(HotStage::kCrypto);
  op_counts().x25519_ops += 2;  // two scalar mults, charged as always

  X25519KeyPair kp;
  kp.private_key = Secret<kX25519KeySize>(random32);
  std::uint8_t k[32];
  clamp(k, kp.private_key);

  std::uint8_t base[32] = {9};
  Fe n1, d1, n2, d2;
  mult_fraction(k, ByteView(base, 32), n1, d1);
  mult_fraction(k, peer_public, n2, d2);
  secure_zero(k, sizeof(k));

  // Batched inversion, zero-safe: a zero denominator (low-order peer
  // point) must yield u = 0 exactly as the unfused path's
  // fe_invert(0) = 0 does, without poisoning the other result.
  const std::uint64_t zero1 = fe_is_zero(d1) ? 1 : 0;
  const std::uint64_t zero2 = fe_is_zero(d2) ? 1 : 0;
  Fe d1s = d1, d2s = d2;
  fe_cmov(d1s, fe_one(), zero1);
  fe_cmov(d2s, fe_one(), zero2);
  const Fe inv_all = fe_invert(fe_mul(d1s, d2s));
  Fe r1 = fe_mul(n1, fe_mul(inv_all, d2s));
  Fe r2 = fe_mul(n2, fe_mul(inv_all, d1s));
  fe_cmov(r1, fe_zero(), zero1);
  fe_cmov(r2, fe_zero(), zero2);
  fe_store(kp.public_key.data(), r1);
  fe_store(shared_out.data(), r2);
  return kp;
}

X25519Key x25519_public(SecretView scalar) {
  std::uint8_t base[32] = {9};
  return x25519(scalar, ByteView(base, 32));
}

X25519KeyPair x25519_keypair(ByteView random32) {
  if (random32.size() != 32) {
    throw std::invalid_argument("x25519_keypair: need 32 random bytes");
  }
  X25519KeyPair kp;
  kp.private_key = Secret<kX25519KeySize>(random32);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

namespace detail {

X25519Key x25519_ladder(SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  X25519Key result = ladder(k, u);
  secure_zero(k, sizeof(k));
  return result;
}

X25519Key x25519_comb_forced(SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  const CombTablePtr table = comb_build(u.data());
  if (!table) {
    throw std::invalid_argument("x25519_comb_forced: point does not lift");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  X25519Key result;
  comb_eval(*table, k, result.data());
  secure_zero(k, sizeof(k));
  return result;
}

bool x25519_comb_liftable(ByteView u) {
  if (u.size() != 32) return false;
  return comb_build(u.data()) != nullptr;
}

void x25519_cache_reset() {
  // Test hook, single-threaded by contract: frees published entries,
  // which is only safe while no other thread is inside comb_lookup.
  t_candidates.clear();
  SharedCache& cache = shared_cache();
  const std::lock_guard<std::mutex> lock(cache.publish_mutex);
  const std::size_t n = cache.count.load(std::memory_order_relaxed);
  cache.count.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    delete cache.slots[i].load(std::memory_order_relaxed);
    cache.slots[i].store(nullptr, std::memory_order_relaxed);
  }
}

std::size_t x25519_cache_size() {
  return shared_cache().count.load(std::memory_order_acquire);
}

}  // namespace detail

}  // namespace shield5g::crypto
