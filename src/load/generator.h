// Open-loop concurrent-registration engine.
//
// Drives N UE registrations through a slice::Slice with arrivals drawn
// from an ArrivalProcess, interleaving the registrations in virtual time
// instead of running them back to back. Each UE is a continuation-style
// state machine: one NAS message exchange (UE -> gNB -> AMF -> ... ->
// response) runs as the usual synchronous chain inside a sim::ClockSpan
// lookahead, the span is rewound, and the exchange's completion is
// scheduled as a discrete event at start + elapsed. Chains dispatched in
// between observe each other's server occupancy through the per-server
// ServiceQueues — that is where queueing delay (and, past saturation,
// shedding) comes from.
//
// Determinism: a run is a pure function of (slice seed, LoadConfig).
// Events fire in (timestamp, FIFO) order, queue admissions break ties by
// worker index, and all randomness flows from seeded Rngs — two runs
// with the same inputs produce bit-identical traces and statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "load/arrival.h"
#include "slice/slice.h"

namespace shield5g::load {

struct LoadConfig {
  std::uint32_t ue_count = 100;
  ArrivalConfig arrivals;
  bool with_pdu = true;
  std::uint64_t seed = 0x10adULL;
  /// Keep the per-event trace lines (the determinism test compares
  /// them); the trace hash is computed either way.
  bool record_trace = false;
};

struct LoadReport {
  std::uint32_t completed = 0;
  std::uint32_t registered = 0;
  std::uint32_t sessions_up = 0;
  std::uint32_t failed = 0;
  /// `failed` split by cause: a UE whose exchange chain crossed a queue
  /// rejection (503 overload shed) counts as `failed_shed`; everything
  /// else — fault-injected 5xx, round-cap wedges — is `failed_error`.
  /// failed == failed_shed + failed_error.
  std::uint32_t failed_shed = 0;
  std::uint32_t failed_error = 0;

  /// Arrival -> completion per registered UE, queueing included.
  Samples setup_ms;
  /// Per-UE virtual instants (ms from run start) of arrival events.
  Samples arrival_ms;

  sim::Nanos makespan = 0;  // first arrival -> last completion
  double offered_rate_per_s = 0.0;
  double achieved_rate_per_s = 0.0;  // registered / makespan

  /// One line per UE event ("t=<ns> ue=<i> <what>") when record_trace.
  std::vector<std::string> trace;
  /// FNV-1a over every trace line (kept even when trace is discarded).
  std::uint64_t trace_hash = 0;

  std::string summary() const;
};

/// One externally supplied arrival: subscriber index `ue` (into the
/// slice's subscriber table) starts its registration `at` nanoseconds
/// after run start. The serving plane (load/serving.h) draws ONE global
/// arrival schedule, partitions it by home slot before any thread runs,
/// and replays each slot's share through the explicit-arrival entry —
/// so the virtual-time workload is a pure function of the partition,
/// not of how many worker threads serve the slots.
struct Arrival {
  std::uint32_t ue = 0;
  sim::Nanos at = 0;
};

class LoadGenerator {
 public:
  /// Runs one open-loop experiment against a created slice. The slice's
  /// clock advances to the last completion; server/queue statistics
  /// accumulate on the slice's bus servers.
  LoadReport run(slice::Slice& slice, const LoadConfig& config);

  /// Same engine, but with an externally supplied arrival list instead
  /// of a drawn schedule (`config.ue_count` and `config.arrivals` are
  /// ignored; `arrivals` must be time-ordered). Each entry references a
  /// subscriber by index, so one UE appears at most once.
  LoadReport run(slice::Slice& slice, const LoadConfig& config,
                 const std::vector<Arrival>& arrivals);
};

/// Post-run snapshot of one server's admission queue (queueing delay
/// reported separately from the service windows L_F/L_T).
struct QueueSnapshot {
  std::string server;
  std::uint32_t workers = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  double wait_p50_us = 0.0;
  double wait_max_us = 0.0;
  sim::Nanos total_wait = 0;
};

/// Queue snapshots for every well-known server of the slice (core VNFs
/// and deployed P-AKA modules), in a fixed deterministic order.
std::vector<QueueSnapshot> queue_snapshots(slice::Slice& slice);

}  // namespace shield5g::load
