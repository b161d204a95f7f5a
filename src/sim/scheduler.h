// Small discrete-event scheduler layered on the virtual clock.
//
// The registration flows themselves run as synchronous call chains (the
// paper's P-AKA servers are single-threaded and its experiments register
// one UE at a time). The scheduler drives the open-loop load engine
// (load/generator.cpp): each UE's arrival and the end of each of its NAS
// rounds is an event, drained with run(). run_until() serves the tests
// that stop a drain at a deadline.
//
// Event ordering contract: events fire in (timestamp, FIFO) order — a
// global sequence number breaks every same-instant tie in insertion
// order. (when, seq) is therefore a unique total order, and one binary
// heap of POD {when, seq, slot} entries, kept by std::push_heap /
// std::pop_heap, pops in exactly that order. Tasks live in a separate
// slot vector with a free list, so heap moves shift 24-byte PODs
// instead of std::function objects, and reserve() pre-sizes both for
// a whole slice run.
//
// Counters (wall-path observability, never fed to digests):
// scheduler.events.{pushed,popped} accumulate per drain;
// scheduler.events.peak is a high-water mark of pending events.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.h"

namespace shield5g::sim {

class Scheduler {
 public:
  explicit Scheduler(VirtualClock& clock) : clock_(clock) {}

  using Task = std::function<void()>;

  /// Schedules `task` to run at absolute virtual instant `at`.
  void at(Nanos when, Task task);

  /// Schedules `task` to run `delay` after the current instant.
  void after(Nanos delay, Task task) { at(clock_.now() + delay, task); }

  /// Pre-sizes the heap and task-slot storage for about `events`
  /// concurrently pending events (one slice run's arrival schedule).
  void reserve(std::size_t events);

  /// Runs events in timestamp order until the queue drains.
  /// The clock is advanced to each event's instant before dispatch.
  void run();

  /// Runs events with timestamps <= `deadline`, then advances the clock
  /// to `deadline` (events scheduled later stay queued).
  void run_until(Nanos deadline);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  VirtualClock& clock() noexcept { return clock_; }

 private:
  /// POD heap entry; the task lives in slots_[slot].
  struct Entry {
    Nanos when;
    std::uint64_t seq;  // tie-break: FIFO among same-instant events
    std::uint32_t slot;
  };
  /// Heap comparator. The std heap algorithms keep the greatest element
  /// at the front, so "later in (when, seq)" is "less" here.
  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::uint32_t acquire_slot(Task task);
  /// Pops the earliest entry, frees its slot, advances the clock to its
  /// instant and runs its task. Pre: !empty().
  void dispatch_next();
  void publish_counters();

  VirtualClock& clock_;
  std::vector<Entry> heap_;       // earliest (when, seq) at the front
  std::vector<Task> slots_;       // stable task storage behind entries
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  // Drain-local counter accumulation, folded into the global registry
  // at the end of each run()/run_until() (one locked add per drain, not
  // per event).
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace shield5g::sim
