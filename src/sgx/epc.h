// Enclave Page Cache model.
//
// SGX reserves Processor Reserved Memory at boot and exposes it to
// enclaves as the EPC. This model tracks, per machine, how many EPC
// pages are committed to which enclave, and per enclave which pages are
// resident vs swapped, so the load-time (EADD/EEXTEND), preheat, demand
// fault and paging costs of the cost model have real state behind them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace shield5g::sgx {

/// Machine-wide EPC pool (bytes granularity, page accounting).
class EpcPool {
 public:
  EpcPool(std::uint64_t total_bytes, std::uint64_t page_size)
      : total_bytes_(total_bytes), page_size_(page_size) {}

  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::uint64_t used_bytes() const noexcept { return used_bytes_; }
  std::uint64_t free_bytes() const noexcept { return total_bytes_ - used_bytes_; }
  std::uint64_t page_size() const noexcept { return page_size_; }

  /// Reserves `bytes` (rounded up to pages) for an enclave.
  /// Throws std::runtime_error when the pool is exhausted.
  void reserve(std::uint64_t bytes);
  void release(std::uint64_t bytes) noexcept;

  std::uint64_t pages_for(std::uint64_t bytes) const noexcept {
    return (bytes + page_size_ - 1) / page_size_;
  }

 private:
  std::uint64_t total_bytes_;
  std::uint64_t page_size_;
  std::uint64_t used_bytes_ = 0;
};

/// Per-enclave page-residency tracking.
class EpcRegion {
 public:
  EpcRegion(EpcPool& pool, std::uint64_t bytes);
  ~EpcRegion();

  EpcRegion(const EpcRegion&) = delete;
  EpcRegion& operator=(const EpcRegion&) = delete;

  std::uint64_t size_bytes() const noexcept { return bytes_; }
  std::uint64_t total_pages() const noexcept { return pages_; }
  std::uint64_t resident_pages() const noexcept { return resident_pages_; }

  /// Marks `n` pages resident (preheat or demand fault); returns how
  /// many were actually newly faulted (the rest were already resident).
  std::uint64_t fault_in(std::uint64_t n) noexcept;

  /// Evicts `n` pages (EWB), used by the paging model.
  std::uint64_t evict(std::uint64_t n) noexcept;

 private:
  EpcPool& pool_;
  std::uint64_t bytes_;
  std::uint64_t pages_;
  std::uint64_t resident_pages_ = 0;
};

}  // namespace shield5g::sgx
