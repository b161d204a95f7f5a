// Deterministic multi-core shard runner.
//
// A shard is one fully independent virtual-time simulation instance —
// its own VirtualClock, Scheduler, deployment and RNG streams, keyed by
// whatever the caller sweeps over (seed, offered rate, isolation mode).
// run_shards() executes N such shards as one fork-join on host threads,
// and map_shards() hands every result back in shard-index order, so the
// aggregate is bit-identical to the sequential run regardless of worker
// count, scheduling or interleaving: parallelism moves only the wall
// clock, never the simulated output (DESIGN.md §12).
//
// Worker resolution: an explicit count wins; otherwise the number of
// CPUs in the process's affinity mask, so `taskset` narrows the width.
// A count of 1 runs every shard inline on the calling thread — exactly
// the sequential behavior the determinism tests diff against.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace shield5g::sim {

/// Resolves a worker count: `requested` if nonzero, else the CPUs in the
/// process's affinity mask (hardware_concurrency when the mask cannot be
/// read). Always returns between 1 and 256.
unsigned shard_workers(unsigned requested = 0) noexcept;

/// Executes fn(i) for every i in [0, jobs) on min(shard_workers(workers),
/// jobs) threads, the caller included, and returns when all have joined.
/// Jobs are claimed from one counter, so each index runs exactly once,
/// start to finish, on a single thread (per-shard state such as
/// thread-local hot-stage deltas stays coherent). The first exception a
/// job throws is rethrown after every job ran.
void run_shards(unsigned workers, std::size_t jobs,
                const std::function<void(std::size_t)>& fn);

/// run_shards() with results collected in shard-index order — the merge
/// step that makes parallel sweeps byte-identical to sequential ones.
template <typename Fn>
auto map_shards(unsigned workers, std::size_t jobs, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  std::vector<std::invoke_result_t<Fn, std::size_t>> results(jobs);
  run_shards(workers, jobs,
             [&results, &fn](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace shield5g::sim
