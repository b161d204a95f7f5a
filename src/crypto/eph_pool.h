// Pregenerated X25519 ephemeral-key pool.
//
// Half of every TLS client handshake and every ECIES conceal is the
// fixed-base multiplication that mints the ephemeral key pair — work
// that depends on nothing but entropy and can run off the critical
// path. This pool keeps a ring of pregenerated key pairs, refilled in
// batches from its own deterministic RNG stream: consumers (the Bus's
// client handshakes and the UE's SUCI conceal) acquire() a ready pair
// and pay only the one variable-base x25519() against the peer key,
// which the comb cache (crypto/x25519.cpp) serves once the peer key
// is stable.
//
// Determinism contract: one pool per Slice, seeded from the slice seed,
// consumed in the slice's deterministic event order — so sweep digests
// stay byte-identical at any shard worker count. Refills exclude their
// scalar mults from the thread's op meter (modeling background
// generation outside the virtual-time critical path). The pool reports
// through the process-wide `x25519.pool.{hit,refill_keys}` counters,
// which never feed digests.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

class EphemeralKeyPool {
 public:
  struct Config {
    std::size_t capacity = 64;  // key pairs generated per refill batch
    std::uint64_t seed = 0;
  };

  explicit EphemeralKeyPool(Config config);

  EphemeralKeyPool(const EphemeralKeyPool&) = delete;
  EphemeralKeyPool& operator=(const EphemeralKeyPool&) = delete;

  /// Pops one pregenerated key pair, refilling the ring first when it
  /// has run dry. Thread-safe: shard hammers may acquire concurrently,
  /// though in normal operation a pool belongs to one slice.
  X25519KeyPair acquire();

  /// Key pairs currently ready (diagnostics / tests).
  std::size_t available() const;

  /// Key pairs generated so far, including the initial fill.
  std::uint64_t generated() const;

 private:
  void refill_locked() SHIELD_REQUIRES(mu_);

  Config config_;
  mutable std::mutex mu_;
  Rng rng_ SHIELD_GUARDED_BY(mu_);
  std::vector<X25519KeyPair> ring_ SHIELD_GUARDED_BY(mu_);
  std::uint64_t generated_ SHIELD_GUARDED_BY(mu_) = 0;
};

}  // namespace shield5g::crypto
