// Deterministic multi-core shard runner.
//
// A shard is one fully independent virtual-time simulation instance —
// its own VirtualClock, Scheduler, deployment and RNG streams, keyed by
// whatever the caller sweeps over (seed, offered rate, isolation mode).
// ShardPool executes N such shards on a fixed set of host worker
// threads and hands every result back in shard-index order, so the
// aggregate is bit-identical to the sequential run regardless of worker
// count, scheduling or interleaving: parallelism moves only the wall
// clock, never the simulated output (DESIGN.md §12).
//
// Worker resolution: an explicit count wins; otherwise the
// SHIELD5G_SHARD_WORKERS environment variable; otherwise
// std::thread::hardware_concurrency(). A count of 1 runs every shard
// inline on the calling thread — exactly the sequential behavior the
// determinism tests diff against.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace shield5g::sim {

/// Resolves a worker count: `requested` if nonzero, else the
/// SHIELD5G_SHARD_WORKERS environment variable (a positive integer in
/// plain decimal digits; any other value counts as unset), else
/// hardware_concurrency. Always returns between 1 and 256.
unsigned shard_workers(unsigned requested = 0) noexcept;

class ShardPool {
 public:
  /// Spawns the fixed worker set (resolved via shard_workers). With one
  /// worker no threads are created and run() stays on the caller.
  explicit ShardPool(unsigned workers = 0);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  unsigned workers() const noexcept { return workers_; }

  /// Executes fn(i) for every i in [0, jobs), blocking until all shards
  /// finish. Shards are claimed dynamically but each index runs exactly
  /// once, start to finish, on a single thread (per-shard state such as
  /// thread-local hot-stage deltas stays coherent). The calling thread
  /// participates in the work. The first exception thrown by a shard is
  /// rethrown here after the batch drains; remaining shards still run.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn);

  /// run() with results collected in shard-index order — the merge step
  /// that makes parallel sweeps byte-identical to sequential ones.
  template <typename Fn>
  auto map(std::size_t jobs, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    std::vector<std::invoke_result_t<Fn, std::size_t>> results(jobs);
    run(jobs, [&results, &fn](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  struct State;
  void worker_loop();

  unsigned workers_ = 1;
  std::unique_ptr<State> state_;
  std::vector<std::thread> threads_;
};

}  // namespace shield5g::sim
