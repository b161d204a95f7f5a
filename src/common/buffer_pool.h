// Per-thread pooled buffer arena for the wire path.
//
// Every SBI hop used to materialize its wire bytes in freshly allocated
// vectors: serialize() -> TLS protect -> bridge -> unprotect -> parse
// was four-plus heap round trips per record. A PooledBuffer instead
// borrows a fixed-size-class slab from the calling thread's pool, keeps
// reserved headroom in front of the payload (so a TLS record header can
// be prepended without moving bytes), and hands the slab back on
// destruction. Slabs are recycled per size class, so a steady-state
// registration run touches the allocator only while the pool warms up.
//
// Threading contract: pools are strictly thread-local (BufferPool::
// local()). A PooledBuffer must be released on the thread that acquired
// it — exactly the shard contract (DESIGN.md §12): one simulated
// exchange runs start-to-finish on one worker, so buffers never cross
// threads. Stats are plain per-thread integers; publish_thread_stats()
// folds the deltas into the process-wide wire.pool.* counters the same
// way hot-stage buckets fold into thread snapshots.
//
// Secrecy: slabs are recycled without scrubbing, which is safe by
// construction — SecretBytes has no conversion to the pool's raw
// append/write interfaces, so tainted key material cannot land in a
// slab without first passing an audited declassify() (the taint system
// of DESIGN.md §10; tools/shield_analyze patrols the call sites).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/thread_annotations.h"

namespace shield5g {

class BufferPool;

/// A borrowed slab with payload window [headroom, headroom + size).
/// Move-only; returns the slab to its pool on destruction. An empty
/// (default-constructed or moved-from) buffer owns nothing.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { release(); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(other.pool_), slab_(other.slab_), capacity_(other.capacity_),
        class_index_(other.class_index_), off_(other.off_), end_(other.end_) {
    other.pool_ = nullptr;
    other.slab_ = nullptr;
    other.capacity_ = 0;
    other.off_ = other.end_ = 0;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      slab_ = other.slab_;
      capacity_ = other.capacity_;
      class_index_ = other.class_index_;
      off_ = other.off_;
      end_ = other.end_;
      other.pool_ = nullptr;
      other.slab_ = nullptr;
      other.capacity_ = 0;
      other.off_ = other.end_ = 0;
    }
    return *this;
  }

  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  explicit operator bool() const noexcept { return slab_ != nullptr; }

  /// Payload window.
  std::uint8_t* data() noexcept { return slab_ + off_; }
  const std::uint8_t* data() const noexcept { return slab_ + off_; }
  std::size_t size() const noexcept { return end_ - off_; }
  bool empty() const noexcept { return end_ == off_; }

  /// Bytes reserved in front of the payload (for prepending framing).
  std::size_t headroom() const noexcept { return off_; }
  /// Writable bytes left behind the payload.
  std::size_t tailroom() const noexcept { return capacity_ - end_; }
  std::size_t capacity() const noexcept { return capacity_; }

  ByteView view() const noexcept { return ByteView(data(), size()); }

  /// Extends the payload by `n` bytes and returns the write cursor for
  /// them. The caller must stay within tailroom() — pools hand out
  /// slabs sized for the whole record up front, so growth never
  /// reallocates (checked in debug via the tests, not per call).
  std::uint8_t* grow(std::size_t n) noexcept {
    std::uint8_t* cursor = slab_ + end_;
    end_ += n;
    return cursor;
  }

  void append(ByteView bytes) noexcept {
    std::uint8_t* out = grow(bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) out[i] = bytes[i];
  }

  /// Grows the payload `n` bytes into the headroom (prepending).
  void prepend(std::size_t n) noexcept { off_ -= n; }

  /// Shrinks the payload from the front / back (the inverse moves, used
  /// to strip record framing after an in-place decrypt).
  void chop_front(std::size_t n) noexcept { off_ += n; }
  void chop(std::size_t n) noexcept { end_ -= n; }

  /// Empties the payload, restoring `headroom` bytes of front reserve.
  void reset(std::size_t headroom) noexcept { off_ = end_ = headroom; }

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, std::uint8_t* slab, std::size_t capacity,
               std::uint8_t class_index, std::size_t headroom) noexcept
      : pool_(pool), slab_(slab), capacity_(capacity),
        class_index_(class_index), off_(headroom), end_(headroom) {}

  void release() noexcept;

  BufferPool* pool_ = nullptr;
  std::uint8_t* slab_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint8_t class_index_ = 0;
  std::size_t off_ = 0;
  std::size_t end_ = 0;
};

/// Fixed-size-class slab pool. One instance per thread via local().
class BufferPool {
 public:
  /// Size classes cover SBI records: small control messages up to the
  /// largest HE-AV payloads; anything bigger falls through to a one-off
  /// heap slab (counted as an oversize miss, never recycled).
  static constexpr std::size_t kClassSizes[] = {512, 2048, 8192, 32768,
                                                131072};
  static constexpr std::size_t kClassCount = std::size(kClassSizes);
  /// Recycled slabs kept per class; beyond this, released slabs free.
  static constexpr std::size_t kMaxFreePerClass = 16;

  /// Per-thread running totals (monotonic within a thread's lifetime).
  struct Stats {
    std::uint64_t hits = 0;        // acquire served from a recycled slab
    std::uint64_t misses = 0;      // acquire had to allocate (incl. oversize)
    std::uint64_t oversize = 0;    // misses that exceeded every class
    std::uint64_t bytes_served = 0;  // sum of requested capacities
  };

  BufferPool() = default;
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The calling thread's pool (created on first use).
  static BufferPool& local();

  /// Borrows a slab with at least `capacity` writable bytes, with the
  /// payload window starting at `headroom` (headroom counts against
  /// capacity).
  PooledBuffer acquire(std::size_t capacity, std::size_t headroom = 0);

  const Stats& stats() const noexcept { return stats_; }

  /// This thread's running totals (shortcut for local().stats()).
  static Stats thread_stats() { return local().stats_; }

  /// Folds this thread's stat deltas since the last publish into the
  /// process-wide wire.pool.{hit,miss,bytes} counters (common/stats.h).
  /// Sweep workers call it once per case — the pool-side analogue of a
  /// hot-stage thread_snapshot() fold.
  static void publish_thread_stats();

 private:
  friend class PooledBuffer;
  void recycle(std::uint8_t* slab, std::uint8_t class_index) noexcept;

  struct FreeList {
    std::uint8_t* slabs[kMaxFreePerClass];
    std::size_t count = 0;
  };

  FreeList free_[kClassCount] SHIELD_THREAD_CONFINED;
  Stats stats_ SHIELD_THREAD_CONFINED;
  Stats published_;
};

}  // namespace shield5g
