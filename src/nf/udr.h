// Unified Data Repository: the credential storage unit (paper §II-A).
//
// Stores subscriber credentials in a columnar SubscriberStore (SoA
// columns + open-addressed SUPI index — see nf/subscriber_store.h) and
// owns SQN management: each authentication vector request atomically
// increments the subscriber's SQN; a resynchronisation writes the
// UE-reported SQNms back.
#pragma once

#include "nf/subscriber_store.h"
#include "nf/types.h"
#include "nf/vnf.h"

namespace shield5g::nf {

class Udr : public Vnf {
 public:
  explicit Udr(net::Bus& bus, const std::string& name = "udr");

  /// Provisioning-plane insert/replace (not part of the SBI).
  void provision(const SubscriberRecord& record) { store_.provision(record); }

  /// Direct read access for the orchestrator and tests (e.g. to seal
  /// the K table into the eUDM enclave at deployment time).
  const SubscriberStore& store() const noexcept { return store_; }
  /// The orchestrator's bulk provisioning path (reserve, prefetch and
  /// view inserts at 1M subscribers); not part of the SBI either.
  SubscriberStore& store() noexcept { return store_; }

  std::size_t subscriber_count() const noexcept { return store_.size(); }

  /// SQN increment step: SEQ advances by one with a 5-bit index field
  /// (TS 33.102 Annex C.1.1.3 array scheme).
  static constexpr std::uint64_t kSqnStep = 32;

 private:
  void register_routes();

  SubscriberStore store_;
};

}  // namespace shield5g::nf
