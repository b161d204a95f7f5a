// Chunked bump arena for long-lived, never-individually-freed records.
//
// common/buffer_pool serves the wire path: short-lived slabs that cycle
// through acquire/release thousands of times a second. The Arena is its
// provisioning-plane sibling — allocations live as long as the owning
// store (subscriber identities, per-subscriber contexts) and are freed
// all at once. A bump pointer over fixed-size chunks turns a million
// small strings into a handful of mmap-sized allocations: no per-node
// malloc headers, no pointer-chasing destructor storm at teardown.
//
// Threading contract: an Arena is owned by exactly one store, and every
// store lives inside one shard's slice (DESIGN.md §12/§16: one shard's
// state is only ever touched by the worker that owns the shard), so the
// members are thread-confined by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace shield5g {

class Arena {
 public:
  /// Chunk size trades slack (last chunk half-empty) against allocation
  /// count; 64 KiB holds ~4K interned SUPIs per chunk.
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Bump-allocates `n` bytes aligned to `align` (a power of two).
  /// Alignment is of the returned *address* — chunk bases only carry
  /// new[] alignment, so the bump must align in address space, not in
  /// chunk offsets. Oversized requests get a dedicated chunk (padded by
  /// align - 1 so the aligned start still fits), so any `n` is legal.
  std::uint8_t* allocate(std::size_t n, std::size_t align = 1) {
    if (!chunks_.empty()) {
      const std::size_t offset = aligned_offset(used_, align);
      if (offset + n <= current_capacity_) {
        used_ = offset + n;
        return chunks_.back().get() + offset;
      }
    }
    const std::size_t need = n + align - 1;
    const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    chunks_.push_back(std::make_unique<std::uint8_t[]>(size));
    current_capacity_ = size;
    reserved_ += size;
    const std::size_t offset = aligned_offset(0, align);
    used_ = offset + n;
    return chunks_.back().get() + offset;
  }

  /// Copies `s` into the arena; the returned view stays valid for the
  /// arena's lifetime.
  std::string_view intern(std::string_view s) {
    if (s.empty()) return std::string_view();
    std::uint8_t* dst = allocate(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      dst[i] = static_cast<std::uint8_t>(s[i]);
    }
    return std::string_view(reinterpret_cast<const char*>(dst), s.size());
  }

  /// Total bytes backing the arena (capacity, not fill).
  std::size_t bytes_reserved() const noexcept { return reserved_; }

  /// Frees every chunk; all views into the arena become dangling.
  void clear() {
    chunks_.clear();
    reserved_ = 0;
    used_ = 0;
    current_capacity_ = 0;
  }

 private:
  /// Smallest offset >= `from` whose *address* in the current chunk is
  /// `align`-aligned.
  std::size_t aligned_offset(std::size_t from, std::size_t align) const {
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(chunks_.back().get());
    const std::uintptr_t mask = static_cast<std::uintptr_t>(align - 1);
    return static_cast<std::size_t>(((base + from + mask) & ~mask) - base);
  }

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_ SHIELD_THREAD_CONFINED;
  std::size_t used_ = 0;              // fill of the last chunk
  std::size_t current_capacity_ = 0;  // size of the last chunk
  std::size_t reserved_ = 0;
};

}  // namespace shield5g
