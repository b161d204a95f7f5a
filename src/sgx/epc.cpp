#include "sgx/epc.h"

#include <algorithm>

namespace shield5g::sgx {

void EpcPool::reserve(std::uint64_t bytes) {
  const std::uint64_t rounded = pages_for(bytes) * page_size_;
  if (rounded > free_bytes()) {
    throw std::runtime_error(
        "EpcPool: out of EPC (" + std::to_string(rounded) + " requested, " +
        std::to_string(free_bytes()) + " free)");
  }
  used_bytes_ += rounded;
}

void EpcPool::release(std::uint64_t bytes) noexcept {
  const std::uint64_t rounded = pages_for(bytes) * page_size_;
  used_bytes_ -= std::min(used_bytes_, rounded);
}

EpcRegion::EpcRegion(EpcPool& pool, std::uint64_t bytes)
    : pool_(pool), bytes_(bytes), pages_(pool.pages_for(bytes)) {
  pool_.reserve(bytes);
}

EpcRegion::~EpcRegion() { pool_.release(bytes_); }

std::uint64_t EpcRegion::fault_in(std::uint64_t n) noexcept {
  const std::uint64_t newly =
      std::min(n, pages_ - std::min(pages_, resident_pages_));
  resident_pages_ += newly;
  return newly;
}

std::uint64_t EpcRegion::evict(std::uint64_t n) noexcept {
  const std::uint64_t evicted = std::min(n, resident_pages_);
  resident_pages_ -= evicted;
  return evicted;
}

}  // namespace shield5g::sgx
