// The simulated SGX-capable host: EPC pool, enclave registry, platform
// secrets for sealing/attestation, and the timer-interrupt source that
// accrues AEX events on resident enclaves.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "sgx/cost_model.h"
#include "sgx/enclave.h"
#include "sgx/epc.h"
#include "sim/clock.h"

namespace shield5g::sgx {

class Machine {
 public:
  explicit Machine(sim::VirtualClock& clock,
                   std::uint64_t seed = 0x56474d53ULL);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::VirtualClock& clock() noexcept { return clock_; }
  const CostModel& costs() const noexcept { return costs_; }
  EpcPool& epc() noexcept { return epc_; }
  Rng& rng() noexcept { return rng_; }

  /// Creates an enclave; ownership stays with the machine.
  Enclave& create_enclave(EnclaveConfig config);
  void destroy_enclave(Enclave& enclave);

  std::size_t enclave_count() const noexcept { return enclaves_.size(); }

  /// Platform-fused secrets (never leave the "CPU package": consumed
  /// only by the sealing/attestation modules).
  ByteView seal_fuse_key() const noexcept { return seal_fuse_key_; }
  ByteView attestation_key() const noexcept { return attestation_key_; }

 private:
  void on_clock_advance(sim::Nanos prev, sim::Nanos now);

  sim::VirtualClock& clock_;
  CostModel costs_;
  EpcPool epc_;
  Rng rng_;
  Bytes seal_fuse_key_;
  Bytes attestation_key_;
  std::vector<std::unique_ptr<Enclave>> enclaves_;
  std::size_t observer_id_ = 0;
  sim::Nanos last_tick_ = 0;
};

}  // namespace shield5g::sgx
