#include "crypto/x25519.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/hot_stage.h"
#include "common/thread_annotations.h"
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

// Clamp, multiply, invert, wipe: the body of every one-point entry.
// `fraction(k, num, den)` runs one multiplication by the clamped scalar
// up to its final inversion.
template <typename Fraction>
X25519Key clamped_multiply(SecretView scalar, ByteView u, Fraction fraction) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  Fe num, den;
  fraction(k, num, den);
  // fe_invert(0) = 0: a zero den (a low-order point, the comb's
  // identity) gives u = 0 on every path.
  X25519Key result{};
  fe_store(result.data(), fe_mul(num, fe_invert(den)));
  secure_zero(k, sizeof(k));
  return result;
}

// The kind of point a call site multiplies, which picks its path: the
// base point's one table (built on first use, no slot, no scan), a
// pinned key's table in the shared cache below (published on first
// use), or, for a fresh ephemeral from the wire, always the ladder, so
// remote input never decides what is cached.
enum class Point { kBase, kPinned, kWire };

constexpr std::uint8_t kBasePoint[32] = {9};

const detail::CombTable& base_table() {
  // Leaked on purpose: workers may run x25519 during late teardown.
  static const detail::CombTable* table =
      detail::comb_build(kBasePoint).release();
  return *table;
}

// Pinned-key cache, shared across every shard worker of a parallel
// sweep: under the shard runner (sim/shards.h) all workers multiply by
// the *same* pinned keys, so a table built once serves the process.
//  * Hit path: a fixed array of published slots, each an atomic pointer
//    to an immutable entry (point + built table, or a remembered
//    unliftable twist point). Readers scan count-then-slots with one
//    acquire load and take no lock — the hit path is wait-free.
//  * Publish path: a key's first use takes the publish mutex, re-checks
//    the slots (another worker may have won the race), builds the
//    64 KiB table once per key process-wide, and release-publishes it.
//  * Full cache (64 tables = 4 MiB): later keys take the ladder, and
//    the acquired count says so before any lock is taken.
// Entries are immutable until detail::x25519_cache_reset(), a
// single-threaded test hook.
constexpr std::size_t kSharedSlots = 64;

struct SharedEntry {
  std::array<std::uint8_t, 32> u{};
  detail::CombTablePtr table;  // null = unliftable twist point, memoized
};

struct SharedCache {
  // Atomic: pinned_table readers scan lock-free; publication (slot
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
const SharedEntry* shared_find(const SharedCache& cache,
                               const std::uint8_t* u, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const SharedEntry* entry = cache.slots[i].load(std::memory_order_relaxed);
    // Pinned keys are public: a plain compare will do.
    if (entry != nullptr && std::equal(entry->u.begin(), entry->u.end(), u)) {
      return entry;
    }
  }
  return nullptr;
}

// The table for pinned key `u`, built and published on its first use;
// nullptr (take the ladder) when it does not lift or the cache is full.
const detail::CombTable* pinned_table(const std::uint8_t* u) {
  SharedCache& cache = shared_cache();
  std::size_t n = cache.count.load(std::memory_order_acquire);
  if (const SharedEntry* hit = shared_find(cache, u, n)) {
    return hit->table.get();
  }
  if (n >= kSharedSlots) return nullptr;  // full: no lock taken
  const std::lock_guard<std::mutex> lock(cache.publish_mutex);
  n = cache.count.load(std::memory_order_relaxed);
  if (const SharedEntry* raced = shared_find(cache, u, n)) {
    return raced->table.get();  // another worker published it first
  }
  if (n >= kSharedSlots) return nullptr;
  auto* entry = new SharedEntry;
  std::memcpy(entry->u.data(), u, 32);
  entry->table = detail::comb_build(u);  // null when the point won't lift
  cache.slots[n].store(entry, std::memory_order_relaxed);
  cache.count.store(n + 1, std::memory_order_release);
  return entry->table.get();
}

// One scalar multiplication up to (not including) its final inversion:
// the comb when the kind of point has a table, else the IFMA ladder
// when the host runs it, else the 51-bit ladder. The scalar backend
// always takes the 51-bit ladder.
void mult_fraction(Point kind, const std::uint8_t k[32], ByteView u, Fe& num,
                   Fe& den) {
  const detail::CombTable* table = nullptr;
  if (active_backend() == CryptoBackend::kAccelerated) {
    if (kind == Point::kBase) table = &base_table();
    if (kind == Point::kPinned) table = pinned_table(u.data());
  }
  if (table != nullptr) {
    detail::comb_eval_fraction(*table, k, num, den);
  } else if (detail::x25519_ladder_is_ifma()) {
    detail::x25519_ifma_ladder_fraction(k, fe_load(u.data()), num, den);
  } else {
    ladder_fraction(k, u, num, den);
  }
}

X25519Key multiply(Point kind, SecretView scalar, ByteView u) {
  ScopedStage timer(HotStage::kCrypto);
  return clamped_multiply(
      scalar, u, [&](const std::uint8_t* k, Fe& num, Fe& den) {
        ++op_counts().x25519_ops;
        mult_fraction(kind, k, u, num, den);
      });
}

}  // namespace

X25519Key x25519(SecretView scalar, ByteView u) {
  return multiply(Point::kWire, scalar, u);
}

X25519Key x25519_pinned(SecretView scalar, ByteView peer) {
  return multiply(Point::kPinned, scalar, peer);
}

X25519Key x25519_public(SecretView scalar) {
  return multiply(Point::kBase, scalar, ByteView(kBasePoint, 32));
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

  Fe n1, d1, n2, d2;
  mult_fraction(Point::kBase, k, ByteView(kBasePoint, 32), n1, d1);
  mult_fraction(Point::kPinned, k, peer_public, n2, d2);
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
  return clamped_multiply(
      scalar, u, [&](const std::uint8_t* k, Fe& num, Fe& den) {
        ladder_fraction(k, u, num, den);
      });
}

void x25519_ladder_fraction(const std::uint8_t k[32], const std::uint8_t u[32],
                            Fe& num, Fe& den) {
  ladder_fraction(k, ByteView(u, 32), num, den);
}

bool x25519_ladder_is_ifma() noexcept {
  // CPUID first: the kernel TU is only entered on hosts that run it.
  static const bool ifma = cpu_has_avx512ifma() && x25519_ifma_compiled();
  return ifma && active_backend() == CryptoBackend::kAccelerated;
}

X25519Key x25519_comb_forced(SecretView scalar, ByteView u) {
  const CombTablePtr table =
      u.size() == 32 ? comb_build(u.data()) : CombTablePtr();
  if (!table) {
    throw std::invalid_argument("x25519_comb_forced: point does not lift");
  }
  return clamped_multiply(
      scalar, u, [&](const std::uint8_t* k, Fe& num, Fe& den) {
        comb_eval_fraction(*table, k, num, den);
      });
}

bool x25519_comb_liftable(ByteView u) {
  if (u.size() != 32) return false;
  return comb_build(u.data()) != nullptr;
}

void x25519_cache_reset() {
  // Test hook, single-threaded by contract: frees published entries,
  // which is only safe while no other thread is inside pinned_table.
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
