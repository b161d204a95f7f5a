#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace shield5g {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % bound;
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal(double mean, double stddev) noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  double u1 = uniform01();
  double u2 = uniform01();
  while (u1 <= 1e-300) u1 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_ = true;
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double median, double sigma) noexcept {
  return median * std::exp(normal(0.0, sigma));
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

void Rng::fill(std::span<std::uint8_t> out) noexcept {
  std::uint8_t* p = out.data();
  std::size_t left = out.size();
  for (; left >= 8; p += 8, left -= 8) {
    // Explicit shifts pin the byte order on any host; compilers merge
    // them into one 8-byte store on little-endian targets.
    const std::uint64_t v = next();
    for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  if (left > 0) {
    const std::uint64_t v = next();
    for (std::size_t b = 0; b < left; ++b) {
      p[b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

}  // namespace shield5g
