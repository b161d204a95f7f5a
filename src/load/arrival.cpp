#include "load/arrival.h"

#include <cmath>
#include <stdexcept>

namespace shield5g::load {

std::vector<sim::Nanos> arrival_schedule(const ArrivalConfig& config,
                                         std::uint32_t count, Rng& rng) {
  if (config.rate_per_s <= 0.0) {
    throw std::invalid_argument("arrival_schedule: rate must be positive");
  }
  const double mean_gap_ns = 1e9 / config.rate_per_s;

  std::vector<sim::Nanos> schedule;
  schedule.reserve(count);
  double t = 0.0;
  switch (config.kind) {
    case ArrivalKind::kPoisson:
      for (std::uint32_t i = 0; i < count; ++i) {
        // Inverse-CDF exponential gap; 1 - u keeps log() away from 0.
        t += -std::log(1.0 - rng.uniform01()) * mean_gap_ns;
        schedule.push_back(static_cast<sim::Nanos>(t));
      }
      break;
    case ArrivalKind::kUniform:
      for (std::uint32_t i = 0; i < count; ++i) {
        t += mean_gap_ns;
        schedule.push_back(static_cast<sim::Nanos>(t));
      }
      break;
    case ArrivalKind::kBurst: {
      const std::uint32_t burst =
          config.burst_size > 0 ? config.burst_size : 1;
      const double burst_gap_ns = mean_gap_ns * burst;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (i != 0 && i % burst == 0) t += burst_gap_ns;
        schedule.push_back(static_cast<sim::Nanos>(t));
      }
      break;
    }
  }
  return schedule;
}

}  // namespace shield5g::load
