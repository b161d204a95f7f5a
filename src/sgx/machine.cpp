#include "sgx/machine.h"

#include <algorithm>
#include <stdexcept>

namespace shield5g::sgx {

Machine::Machine(sim::VirtualClock& clock, std::uint64_t seed)
    : clock_(clock),
      epc_(costs_.epc_total_bytes, costs_.page_size),
      rng_(seed) {
  seal_fuse_key_ = rng_.bytes(32);
  attestation_key_ = rng_.bytes(32);
  observer_id_ = clock_.add_observer(
      [this](sim::Nanos prev, sim::Nanos now) { on_clock_advance(prev, now); });
  last_tick_ = clock_.now();
}

Machine::~Machine() { clock_.remove_observer(observer_id_); }

Enclave& Machine::create_enclave(EnclaveConfig config) {
  enclaves_.push_back(std::make_unique<Enclave>(*this, std::move(config)));
  return *enclaves_.back();
}

void Machine::destroy_enclave(Enclave& enclave) {
  const auto it = std::find_if(
      enclaves_.begin(), enclaves_.end(),
      [&enclave](const auto& e) { return e.get() == &enclave; });
  if (it == enclaves_.end()) {
    throw std::logic_error("Machine::destroy_enclave: unknown enclave");
  }
  enclaves_.erase(it);
}

void Machine::on_clock_advance(sim::Nanos /*prev*/, sim::Nanos now) {
  // The simulated OS timer interrupts resident enclave threads on a
  // fixed period; each interrupt is an AEX + ERESUME pair. This is why
  // Table III's AEX counts track enclave *lifetime*, not workload.
  const sim::Nanos period = costs_.aex_timer_period;
  if (now < last_tick_ + period) return;
  const std::uint64_t events = (now - last_tick_) / period;
  last_tick_ += events * period;
  for (const auto& e : enclaves_) {
    if (e->state() == EnclaveState::kInitialized) {
      e->accrue_aex(events);
    }
  }
}

}  // namespace shield5g::sgx
