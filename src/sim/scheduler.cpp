#include "sim/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/hot_stage.h"
#include "common/stats.h"

namespace shield5g::sim {

std::uint32_t Scheduler::acquire_slot(Task task) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(task);
    return slot;
  }
  slots_.push_back(std::move(task));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::at(Nanos when, Task task) {
  if (when < clock_.now()) {
    throw std::logic_error("Scheduler::at: instant in the past");
  }
  heap_.push_back(Entry{when, next_seq_++, acquire_slot(std::move(task))});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++pushed_;
  if (heap_.size() > peak_) peak_ = heap_.size();
}

void Scheduler::reserve(std::size_t events) {
  heap_.reserve(events + 16);
  slots_.reserve(events + 16);
  free_slots_.reserve(events + 16);
}

void Scheduler::dispatch_next() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry ev = heap_.back();
  heap_.pop_back();
  ++popped_;
  // Move the task out and free its slot before dispatch: the task may
  // schedule more events and immediately reuse the slot.
  Task task = std::move(slots_[ev.slot]);
  slots_[ev.slot] = nullptr;
  free_slots_.push_back(ev.slot);
  clock_.advance_to(ev.when);
  task();
}

void Scheduler::publish_counters() {
  if (pushed_ > 0) counter_add("scheduler.events.pushed", pushed_);
  if (popped_ > 0) counter_add("scheduler.events.popped", popped_);
  if (peak_ > 0) counter_max("scheduler.events.peak", peak_);
  pushed_ = 0;
  popped_ = 0;
  // peak_ stays: it is this scheduler's lifetime high-water mark, and
  // counter_max makes re-publishing it idempotent.
}

void Scheduler::run() {
  // The scheduler stage times the whole dispatch; nested crypto/codec/
  // bus stages subtract themselves out (exclusive-time semantics), so
  // what is left is queue upkeep plus the engine state machines.
  ScopedStage timer(HotStage::kScheduler);
  while (!empty()) dispatch_next();
  publish_counters();
}

void Scheduler::run_until(Nanos deadline) {
  ScopedStage timer(HotStage::kScheduler);
  while (!empty() && heap_.front().when <= deadline) dispatch_next();
  clock_.advance_to(deadline);
  publish_counters();
}

}  // namespace shield5g::sim
