// Parallel seed/rate/mode sweeps over the open-loop registration engine.
//
// A sweep is a list of fully independent experiment cases — each one a
// complete slice deployment plus a load configuration, i.e. one shard
// in the sense of sim/shard_pool.h. run_sweep() executes them on the
// shard pool and returns results in case order, so the sweep's output
// is bit-identical to running the cases sequentially whatever
// SHIELD5G_SHARD_WORKERS says (tests/determinism_test.cpp proves it;
// bench/shard_scaling measures the wall-clock scaling).
//
// Per-case wall time and hot-stage deltas are measured on the worker
// that ran the case (hot-stage buckets are thread-local), so stage
// attribution stays exact even with eight shards in flight.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hot_stage.h"
#include "load/generator.h"
#include "slice/slice.h"

namespace shield5g::load {

struct SweepCase {
  /// Free-form tag carried through to the result (mode/rate/seed).
  std::string label;
  slice::SliceConfig slice;
  LoadConfig load;
};

struct SweepResult {
  std::string label;
  LoadReport report;
  /// Post-run admission-queue state of every well-known server.
  std::vector<QueueSnapshot> queues;
  /// Requests shed across all queues (the NGAP silent-drop count).
  std::uint64_t shed = 0;
  /// Co-located fast-path deliveries this case's bus performed (zero in
  /// container/SGX modes and with Bus::set_fastpath(false)). Excluded
  /// from case_digest — the digest must match fast path on vs off.
  std::uint64_t fastpath_hits = 0;
  /// Host milliseconds inside LoadGenerator::run for this case (slice
  /// construction and provisioning excluded, as in perfbench's
  /// `steady` workload).
  double run_wall_ms = 0.0;
  /// This case's exclusive hot-stage nanoseconds (zeros unless
  /// hot_stage collection is enabled).
  std::array<std::uint64_t, kHotStageCount> stage_ns{};
};

/// Runs every case — one fresh slice each — and returns the results in
/// case order. `workers` as in sim::shard_workers (0 = env, then
/// hardware concurrency; 1 = sequential).
std::vector<SweepResult> run_sweep(const std::vector<SweepCase>& cases,
                                   unsigned workers = 0);

/// Order-sensitive FNV-1a digest over everything deterministic in the
/// results: per-case trace hashes, counters, makespans, shed counts and
/// the bit patterns of every latency sample. Two sweeps are
/// bit-identical iff their digests match; wall-clock fields are
/// excluded by construction.
std::uint64_t sweep_digest(const std::vector<SweepResult>& results);

/// One line per case of the digest's inputs ("case=0 label=... trace=
/// ..."), for byte-for-byte diffing across worker counts in CI.
std::vector<std::string> sweep_digest_lines(
    const std::vector<SweepResult>& results);

}  // namespace shield5g::load
