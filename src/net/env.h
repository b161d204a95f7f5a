// Execution environments: where a microservice's code runs and how its
// syscalls and computation are charged to the virtual clock.
//
// The paper compares three deployments of the same AKA code: monolithic
// (inside the parent VNF), container (separate Docker container) and
// SGX (Gramine-shielded container). The first two execute on the host —
// syscalls cost their plain service time; the SGX environment (defined
// in paka/deployment.h, wrapping the LibOS runtime) turns every syscall
// into an OCALL round trip and scales computation by the
// memory-encryption factor.
#pragma once

#include <cstdint>
#include <string>

#include "common/syscall.h"
#include "sim/clock.h"

namespace shield5g::net {

class ExecutionEnv {
 public:
  virtual ~ExecutionEnv() = default;

  /// Issues one syscall of class `sys` moving `bytes` payload bytes.
  virtual void syscall(Sys sys, std::uint64_t bytes = 0) = 0;

  /// Charges `ns` of computation.
  virtual void compute(sim::Nanos ns) = 0;

  /// Heap-allocation churn of `pages` 4 KiB pages during a request.
  virtual void alloc_pages(std::uint64_t pages) = 0;

  /// Called once before the very first request is served (lazy library
  /// loading, cold code paths — the R_I spike of Fig. 10b).
  virtual void on_first_request() = 0;

  /// Per-request background activity hook (paging pressure etc.).
  virtual void on_request(std::uint64_t /*request_index*/) {}

  virtual std::string kind() const = 0;
};

/// Plain host / container execution (the paper's non-SGX baselines;
/// the difference between monolithic and container is at the network
/// layer, not here).
class HostEnv final : public ExecutionEnv {
 public:
  explicit HostEnv(sim::VirtualClock& clock) : clock_(clock) {}

  void syscall(Sys sys, std::uint64_t bytes = 0) override {
    clock_.advance(syscall_host_ns(sys, bytes));
  }
  void compute(sim::Nanos ns) override { clock_.advance(ns); }
  void alloc_pages(std::uint64_t pages) override {
    clock_.advance(pages * kHostAllocPerPage);
  }
  void on_first_request() override {
    // Warm page cache / lazy dynamic linking on the host: cheap.
    clock_.advance(180 * sim::kMicrosecond);
  }
  std::string kind() const override { return "container"; }

 private:
  static constexpr sim::Nanos kHostAllocPerPage = 150;
  sim::VirtualClock& clock_;
};

}  // namespace shield5g::net
