#include "common/hot_stage.h"

#include <atomic>
#include <chrono>

namespace shield5g {

namespace {

std::atomic<bool> g_enabled{false};

// The calling thread's buckets: only the owning thread reads or writes
// them, so plain integers suffice.
thread_local std::array<std::uint64_t, kHotStageCount> t_buckets{};

thread_local ScopedStage* t_current = nullptr;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // det-audited(steady_clock feeds latency metrics only; digests never include timestamps)
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace hot_stage {

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::array<std::uint64_t, kHotStageCount> thread_snapshot() noexcept {
  return t_buckets;
}

}  // namespace hot_stage

ScopedStage::ScopedStage(HotStage stage) noexcept {
  if (!hot_stage::enabled()) return;
  active_ = true;
  stage_ = stage;
  parent_ = t_current;
  t_current = this;
  start_ns_ = now_ns();
}

ScopedStage::~ScopedStage() {
  if (!active_) return;
  const std::uint64_t elapsed = now_ns() - start_ns_;
  const std::uint64_t own = elapsed > child_ns_ ? elapsed - child_ns_ : 0;
  t_buckets[static_cast<int>(stage_)] += own;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
  t_current = parent_;
}

}  // namespace shield5g
