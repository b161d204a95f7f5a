#include "common/buffer_pool.h"

#include <cstdlib>
#include <new>

#include "common/stats.h"

namespace shield5g {

namespace {

/// Smallest class that fits `capacity`; kClassCount when oversize.
std::size_t class_for(std::size_t capacity) noexcept {
  for (std::size_t i = 0; i < BufferPool::kClassCount; ++i) {
    if (capacity <= BufferPool::kClassSizes[i]) return i;
  }
  return BufferPool::kClassCount;
}

}  // namespace

void PooledBuffer::release() noexcept {
  if (slab_ == nullptr) return;
  if (pool_ != nullptr) {
    pool_->recycle(slab_, class_index_);
  } else {
    ::operator delete(slab_);  // oversize one-off slab
  }
  slab_ = nullptr;
  pool_ = nullptr;
  capacity_ = 0;
  off_ = end_ = 0;
}

BufferPool::~BufferPool() {
  for (FreeList& list : free_) {
    for (std::size_t i = 0; i < list.count; ++i) {
      ::operator delete(list.slabs[i]);
    }
    list.count = 0;
  }
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

PooledBuffer BufferPool::acquire(std::size_t capacity, std::size_t headroom) {
  stats_.bytes_served += capacity;
  const std::size_t cls = class_for(capacity);
  if (cls == kClassCount) {
    // Oversize: a one-off slab that frees on release instead of
    // recycling (pool_ stays null so release() takes the delete path).
    ++stats_.misses;
    ++stats_.oversize;
    auto* slab = static_cast<std::uint8_t*>(::operator new(capacity));
    return PooledBuffer(nullptr, slab, capacity, 0, headroom);
  }
  FreeList& list = free_[cls];
  if (list.count > 0) {
    ++stats_.hits;
    std::uint8_t* slab = list.slabs[--list.count];
    return PooledBuffer(this, slab, kClassSizes[cls],
                        static_cast<std::uint8_t>(cls), headroom);
  }
  ++stats_.misses;
  auto* slab = static_cast<std::uint8_t*>(::operator new(kClassSizes[cls]));
  return PooledBuffer(this, slab, kClassSizes[cls],
                      static_cast<std::uint8_t>(cls), headroom);
}

void BufferPool::recycle(std::uint8_t* slab, std::uint8_t class_index) noexcept {
  FreeList& list = free_[class_index];
  if (list.count < kMaxFreePerClass) {
    list.slabs[list.count++] = slab;
    return;
  }
  ::operator delete(slab);
}

void BufferPool::publish_thread_stats() {
  BufferPool& pool = local();
  const Stats delta{pool.stats_.hits - pool.published_.hits,
                    pool.stats_.misses - pool.published_.misses,
                    pool.stats_.oversize - pool.published_.oversize,
                    pool.stats_.bytes_served - pool.published_.bytes_served};
  if (delta.hits != 0) counter_add("wire.pool.hit", delta.hits);
  if (delta.misses != 0) counter_add("wire.pool.miss", delta.misses);
  if (delta.oversize != 0) counter_add("wire.pool.oversize", delta.oversize);
  if (delta.bytes_served != 0) {
    counter_add("wire.pool.bytes", delta.bytes_served);
  }
  pool.published_ = pool.stats_;
}

}  // namespace shield5g
