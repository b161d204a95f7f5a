// SUPI-sharded serving plane: actor-style NF shards over a fixed
// home-slot partition.
//
// run_sweep (PR 4) parallelizes *independent experiments*; this runs
// ONE experiment's live serving path on many cores. The subscriber
// space is partitioned by SUPI hash into kServingSlots home slots.
// Each slot is an actor: a complete slice deployment owning a disjoint
// share of UE/subscriber state — its own columnar UDR store, UDM/AMF
// context tables, virtual clock, scheduler and SBI bus. Nothing is
// shared between slots, so no lock ever guards serving-path state.
//
// Execution separates the *partition* (slots, fixed) from the
// *width* (shards = worker threads, 1..slots). The caller draws one
// global arrival schedule and partitions it up front into one SweepCase
// per slot (population, seeds, and the slot's arrivals in global-id
// order); then sim::run_shards runs one job per worker, and job w serves
// slots {s : s % shards == w} in ascending order through run_case's
// explicit-arrival path.
//
// Determinism contract (DESIGN.md §16): each slot's result is a pure
// function of (slot seed, population, arrivals) — all derived before
// any thread runs — and per-slot results merge in slot order through
// the same case-digest machinery run_sweep uses. The merged digest is
// therefore byte-identical at 1/2/4/8 shards and across back-to-back
// cold starts (tests/determinism_test.cpp proves it; perfbench's
// `serving` workload records the wall-clock cost).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "load/sweep.h"

namespace shield5g::load {

/// Fixed logical partition width. The digest is a function of the slot
/// layout, so this is a protocol constant, not a tuning knob: changing
/// it re-partitions subscriber state (like resizing a consistent-hash
/// ring) and legitimately changes per-slot traces.
inline constexpr std::uint32_t kServingSlots = 8;

struct ServingConfig {
  /// Per-slot deployment template. population/subscriber_count/seed are
  /// overridden per slot; everything else (isolation mode, SBI/TLS
  /// policy, P-AKA options, queue depth) applies to every slot.
  slice::SliceConfig slice;
  /// Global UE count across the whole plane (ids [0, ue_count)).
  std::uint32_t ue_count = 64;
  /// Global arrival process; one schedule is drawn and then partitioned.
  ArrivalConfig arrivals;
  bool with_pdu = true;
  std::uint64_t seed = 0x5e47eULL;
  bool record_trace = false;
};

struct ServingReport {
  /// One result per home slot, in slot order — the same shape run_sweep
  /// emits, so digests/diff lines reuse the sweep machinery verbatim.
  std::vector<SweepResult> slots;
  /// Worker threads actually used (after clamping to the slot count).
  std::uint32_t shards = 0;
  /// sweep_digest over `slots` — the merge-invariant fingerprint.
  std::uint64_t digest = 0;
  std::vector<std::string> digest_lines;

  // Cross-slot totals (sums of the per-slot reports).
  std::uint32_t completed = 0;
  std::uint32_t registered = 0;
  std::uint32_t sessions_up = 0;
  std::uint32_t failed = 0;
  /// `failed` split by cause (see LoadReport): queue-shed vs error.
  std::uint32_t failed_shed = 0;
  std::uint32_t failed_error = 0;
  std::uint64_t shed = 0;
  /// Co-located fast-path deliveries across all slots (wall-clock-only
  /// metric; excluded from the digest).
  std::uint64_t fastpath_hits = 0;
  /// Always 0; kept only because perfbench's load.serve.backpressure reads it.
  std::uint64_t backpressure = 0;
};

/// Home slot of a SUPI: supi_hash (the UDR's row hash) mod the slot
/// count, so storage and partition can never disagree on ownership.
std::uint32_t home_slot(std::string_view supi, std::uint32_t slots) noexcept;

/// Runs the sharded serving plane. `shards` resolves like
/// sim::shard_workers (0 = the CPUs in the affinity mask), then clamps
/// to the slot count.
ServingReport run_serving(const ServingConfig& config, unsigned shards = 0);

}  // namespace shield5g::load
