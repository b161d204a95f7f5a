// Open-loop arrival processes for the workload generator.
//
// Open-loop means arrivals are drawn from a process that does not react
// to the system's progress — the defining property of production load
// (UEs power on when their users do, not when the core is ready). The
// generator pre-draws the whole arrival schedule from a seeded RNG, so
// a run is fully determined by (seed, config).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"

namespace shield5g::load {

enum class ArrivalKind {
  kPoisson,  // exponential inter-arrival gaps (memoryless offered load)
  kUniform,  // evenly spaced arrivals at the offered rate
  kBurst,    // groups of `burst_size` simultaneous arrivals, spaced so
             // the long-run rate matches `rate_per_s`
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_per_s = 100.0;      // long-run offered registrations/s
  std::uint32_t burst_size = 10;  // kBurst only
};

/// Draws the absolute arrival instants (relative to the schedule start)
/// for `count` arrivals. Instants are non-decreasing.
std::vector<sim::Nanos> arrival_schedule(const ArrivalConfig& config,
                                         std::uint32_t count, Rng& rng);

}  // namespace shield5g::load
