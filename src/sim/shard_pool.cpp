#include "sim/shard_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "common/thread_annotations.h"

namespace shield5g::sim {

namespace {

// A count spelled as plain decimal digits, saturated at `cap`; 0 for
// anything else ("2x", "+3", " 3", "3 ", "1e3", ""), which the caller
// treats like an unset variable.
unsigned parse_count(const char* s, unsigned cap) noexcept {
  if (*s == '\0') return 0;
  unsigned value = 0;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return 0;
    value = value * 10 + static_cast<unsigned>(*s - '0');
    if (value > cap) value = cap;  // saturates before value * 10 overflows
  }
  return value;
}

}  // namespace

unsigned shard_workers(unsigned requested) noexcept {
  // A hard ceiling so a typo'd env value cannot fork-bomb the host.
  constexpr unsigned kMaxWorkers = 256;
  unsigned resolved = requested;
  if (resolved == 0) {
    if (const char* env = std::getenv("SHIELD5G_SHARD_WORKERS")) {
      resolved = parse_count(env, kMaxWorkers);
    }
  }
  if (resolved == 0) resolved = std::thread::hardware_concurrency();
  if (resolved == 0) resolved = 1;
  return resolved < kMaxWorkers ? resolved : kMaxWorkers;
}

namespace {

// One run()'s worth of work. Heap-allocated and shared between the
// caller and every worker that observed its generation: a worker that
// wakes late (after the batch drained and a new run began) still holds
// the *old* batch, finds `next` exhausted and backs off — it can never
// claim shards or touch state from a batch it was not dispatched for.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t jobs = 0;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done SHIELD_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error SHIELD_GUARDED_BY(mutex);

  // Claims and executes shards until the batch is exhausted. Every
  // participant accounts the shards it finished; the last one to push
  // `done` to `jobs` wakes the caller.
  void work() {
    std::size_t finished = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) break;
      try {
        (*fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      ++finished;
    }
    if (finished == 0) return;
    bool all_done = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done += finished;
      all_done = done == jobs;
    }
    if (all_done) done_cv.notify_all();
  }
};

}  // namespace

struct ShardPool::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool stop SHIELD_GUARDED_BY(mutex) = false;
  std::uint64_t generation SHIELD_GUARDED_BY(mutex) = 0;
  std::shared_ptr<Batch> batch SHIELD_GUARDED_BY(mutex);
};

ShardPool::ShardPool(unsigned workers)
    : workers_(shard_workers(workers)), state_(std::make_unique<State>()) {
  // The calling thread is worker zero; spawn the rest.
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ShardPool::~ShardPool() {
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> claimed;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->cv.wait(lock, [this, seen] {
        return state_->stop || state_->generation != seen;
      });
      if (state_->stop) return;
      seen = state_->generation;
      claimed = state_->batch;
    }
    if (claimed) claimed->work();
  }
}

void ShardPool::run(std::size_t jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) return;
  if (workers_ == 1 || jobs == 1) {
    // Sequential path: no pool machinery at all, so worker-count 1 is
    // byte-for-byte today's single-core behavior.
    for (std::size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }

  const auto dispatch = std::make_shared<Batch>();
  dispatch->fn = &fn;
  dispatch->jobs = jobs;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->batch = dispatch;
    ++state_->generation;
  }
  state_->cv.notify_all();

  dispatch->work();  // the caller pulls shards too

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(dispatch->mutex);
    dispatch->done_cv.wait(
        lock, [&dispatch] { return dispatch->done == dispatch->jobs; });
    error = dispatch->first_error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace shield5g::sim
