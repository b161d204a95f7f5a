// Deterministic seeded PRNG (xoshiro256**) used everywhere randomness is
// needed: nonce generation in the simulated core, latency jitter in the
// cost models, and workload generation in the benches. A fixed seed makes
// every experiment reproducible run-to-run.
//
// There is deliberately no global or thread-local stream: every consumer
// owns an Rng instance seeded from its own configuration, so parallel
// shard runs (sim/shards.h) cannot bleed draws across shards — each
// shard's streams are a pure function of that shard's seeds, whatever
// thread it lands on.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace shield5g {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Gaussian with the given mean / standard deviation (Box-Muller).
  double normal(double mean, double stddev) noexcept;

  /// Log-normal sample with the given *linear-space* median and sigma.
  /// Latency distributions in the paper's box plots are right-skewed;
  /// log-normal jitter reproduces that shape.
  double lognormal(double median, double sigma) noexcept;

  /// `n` random bytes (for RAND, keys, nonces in the simulated core);
  /// fill() into a new vector.
  Bytes bytes(std::size_t n);

  /// Fills `out` from the stream: each draw's eight bytes in
  /// little-endian order, the last draw truncated. Filling n bytes
  /// consumes the same draws as bytes(n) and writes the same bytes.
  void fill(std::span<std::uint8_t> out) noexcept;

 private:
  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace shield5g
