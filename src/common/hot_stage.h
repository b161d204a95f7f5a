// Wall-clock stage accounting for the registration hot path.
//
// Virtual time (sim/clock.h) answers the paper's questions; this module
// answers an engineering one: where do the *host* cycles go when the
// harness pushes registrations through the stack? Each ScopedStage
// attributes real elapsed nanoseconds to one of four buckets — crypto,
// codec, bus, scheduler — with exclusive-time semantics: a nested stage
// pauses its parent, so bucket totals never double-count and their sum
// is bounded by wall clock.
//
// Collection is off by default and costs one relaxed atomic load per
// probe when disabled, so instrumented production paths (TLS records,
// JSON codecs, the bus pipeline) pay nothing measurable outside the
// bench harness. The buckets are thread-local and only their own thread
// reads them: each shard worker of a parallel sweep charges its own
// (no cross-core bouncing on the probe path), and thread_snapshot() is
// how the sweep runner attributes stage time to one shard even when
// eight shards time stages concurrently.
#pragma once

#include <array>
#include <cstdint>

namespace shield5g {

enum class HotStage : std::uint8_t {
  kCrypto = 0,    // AES/SHA/X25519 and the protocols directly over them
  kCodec = 1,     // JSON + HTTP serialization and parsing
  kBus = 2,       // bridge transport, TLS records, request pipeline
  kScheduler = 3, // engine event loop, queue admission, arrival pacing
};
inline constexpr int kHotStageCount = 4;

namespace hot_stage {

/// Turns collection on/off (global; off by default).
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// The calling thread's own accumulated buckets. Two snapshots bracket
/// a shard's run; their difference is that shard's stage profile,
/// uncontaminated by shards running concurrently on other workers.
std::array<std::uint64_t, kHotStageCount> thread_snapshot() noexcept;

}  // namespace hot_stage

/// RAII probe. Place one at the top of a hot function:
///
///   ScopedStage timer(HotStage::kCodec);
///
/// Nesting is explicit and cheap: entering a child stage charges the
/// parent for time up to the hand-off and resumes it afterwards.
class ScopedStage {
 public:
  explicit ScopedStage(HotStage stage) noexcept;
  ~ScopedStage();

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  HotStage stage_{};
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ScopedStage* parent_ = nullptr;
};

}  // namespace shield5g
