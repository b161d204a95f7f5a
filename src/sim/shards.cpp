#include "sim/shards.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace shield5g::sim {

unsigned shard_workers(unsigned requested) noexcept {
  // A hard ceiling so a typo'd count cannot fork-bomb the host.
  constexpr unsigned kMaxWorkers = 256;
  unsigned resolved = requested;
  if (resolved == 0) {
    cpu_set_t mask{};
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      resolved = static_cast<unsigned>(CPU_COUNT(&mask));
    }
  }
  if (resolved == 0) resolved = std::thread::hardware_concurrency();
  if (resolved == 0) resolved = 1;
  return std::min(resolved, kMaxWorkers);
}

void run_shards(unsigned workers, std::size_t jobs,
                const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < jobs; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  // The caller is one of the workers; with one worker (or one job) no
  // thread starts and every job runs inline. jthreads join when the
  // vector dies, so a failed thread start still drains and joins the
  // threads already running before its error leaves.
  {
    const std::size_t width =
        std::min<std::size_t>(shard_workers(workers), jobs);
    std::vector<std::jthread> threads;
    for (std::size_t t = 1; t < width; ++t) threads.emplace_back(work);
    work();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace shield5g::sim
