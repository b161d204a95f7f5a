// P-AKA deployment envelope: the same service code under container or
// SGX isolation (paper §IV).
//
// `SgxEnv` adapts the network substrate's ExecutionEnv interface onto
// the Gramine runtime: every syscall becomes an OCALL round trip,
// computation pays the memory-encryption factor, per-request heap churn
// pays EPC allocation costs, and the first request walks the cold code
// paths (lazy library loading) that produce the paper's R_I spike.
//
// `PakaService` is the base of the three modules (eUDM/eAUSF/eAMF):
// deploy() either "docker run"s the container or GSC-builds + boots the
// enclave, and the module's REST endpoints serve identically in both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "libos/runtime.h"
#include "net/bus.h"
#include "net/env.h"
#include "sgx/attestation.h"
#include "sgx/enclave_context.h"
#include "sgx/machine.h"

namespace shield5g::paka {

enum class Isolation {
  kContainer,  // plain Docker container (the paper's non-SGX baseline)
  kSgx,        // Gramine-SGX shielded container
};

class SgxEnv final : public net::ExecutionEnv {
 public:
  SgxEnv(libos::GramineRuntime& runtime, Rng& rng);

  void syscall(Sys sys, std::uint64_t bytes = 0) override;
  void compute(sim::Nanos ns) override;
  void alloc_pages(std::uint64_t pages) override;
  void on_first_request() override;
  void on_request(std::uint64_t request_index) override;
  std::string kind() const override { return "sgx"; }
  bool is_sgx() const override { return true; }

  /// Cold-path profile for the first request (Fig. 10b).
  static constexpr std::uint64_t kFirstRequestPages = 9'000;
  static constexpr std::uint32_t kFirstRequestOcalls = 200;

 private:
  libos::GramineRuntime& runtime_;
  Rng& rng_;
};

struct PakaOptions {
  Isolation isolation = Isolation::kSgx;
  std::uint64_t epc_size = 512ULL << 20;  // paper default: 512 MB
  std::uint32_t max_threads = 4;          // paper default: 4
  bool preheat = true;
  bool exitless = false;  // paper §V-B7 future-work feature

  /// Enclave worker threads: the TCS budget max_threads minus the
  /// Gramine helper threads (IPC, async events, pipe-TLS), floor 1 — the
  /// paper's "3 helpers + 1 worker" layout at the default max_threads =
  /// 4. Under container isolation the module runs
  /// PakaService::kContainerWorkers instead.
  std::uint32_t sgx_workers() const noexcept {
    constexpr std::uint32_t kGramineHelpers = 3;
    return max_threads > kGramineHelpers ? max_threads - kGramineHelpers : 1;
  }
};

class PakaService {
 public:
  PakaService(std::string name, sgx::Machine& machine, net::Bus& bus,
              PakaOptions options);
  virtual ~PakaService();

  PakaService(const PakaService&) = delete;
  PakaService& operator=(const PakaService&) = delete;

  /// Builds and starts the module; returns the load time (enclave load
  /// for SGX — the Fig. 7 metric — or container start otherwise).
  /// Attaches the server to the bus.
  sim::Nanos deploy();

  /// Stops the module and releases its resources (EPC for SGX).
  void undeploy();

  bool deployed() const noexcept { return deployed_; }
  const std::string& name() const noexcept { return name_; }
  Isolation isolation() const noexcept { return options_.isolation; }
  const PakaOptions& options() const noexcept { return options_; }
  net::Server& server() noexcept { return server_; }
  net::ExecutionEnv& env();
  net::Bus& bus() noexcept { return bus_; }

  /// SGX-only introspection; null under container isolation.
  libos::GramineRuntime* runtime() noexcept { return runtime_.get(); }
  const sgx::TransitionCounters* sgx_counters() const;

  /// Declassification context of the running module: enclave-backed
  /// once an SGX deployment has booted, container-grade otherwise.
  /// Enclave-grade declassification (unsealing long-term keys, KI 27)
  /// is only legal through the former.
  const sgx::EnclaveContext* secret_ctx() const noexcept {
    return &secret_ctx_;
  }

  /// Remote attestation of the running module (SGX only; throws under
  /// container isolation, which has nothing to attest — the point of
  /// KI 13).
  sgx::Quote quote(ByteView report_data);

  /// RA-TLS-style quote binding this module's measurement to its TLS
  /// identity on the bus (report data = SHA-256 of the public key), so
  /// a verifier knows the attested code is the peer it will talk TLS
  /// to. Requires the module to be deployed.
  sgx::Quote identity_quote();

  /// Modeled container cold-start time (image pull cached).
  static constexpr sim::Nanos kContainerStart = 850 * sim::kMillisecond;
  /// Request workers of the module's HTTP server under container
  /// isolation.
  static constexpr std::uint32_t kContainerWorkers = 4;
  /// Bounded FIFO depth in front of the module's workers.
  static constexpr std::uint32_t kQueueCapacity = 128;

 protected:
  /// Subclasses register their REST endpoints here.
  virtual void register_routes() = 0;
  /// Per-request heap churn in pages (drives the per-module L_F factor
  /// under SGX; calibrated against Fig. 9a).
  virtual std::uint64_t request_alloc_pages() const = 0;
  /// Application image-layer size delta (differentiates Fig. 7 bars).
  virtual std::uint64_t app_extra_bytes() const { return 0; }

  sgx::Machine& machine_;
  net::Bus& bus_;

 private:
  std::string name_;
  PakaOptions options_;
  net::HostEnv host_env_;
  net::Server server_;
  std::unique_ptr<libos::GramineRuntime> runtime_;
  std::unique_ptr<SgxEnv> sgx_env_;
  sgx::EnclaveContext secret_ctx_;
  Bytes signer_key_;
  bool deployed_ = false;
  bool routes_registered_ = false;
};

}  // namespace shield5g::paka
