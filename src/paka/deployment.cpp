#include "paka/deployment.h"

#include <stdexcept>

#include "common/log.h"
#include "crypto/sha256.h"
#include "libos/gsc.h"

namespace shield5g::paka {

SgxEnv::SgxEnv(libos::GramineRuntime& runtime, Rng& rng)
    : runtime_(runtime), rng_(rng) {}

void SgxEnv::syscall(Sys sys, std::uint64_t bytes) {
  runtime_.syscall(sys, bytes);
}

void SgxEnv::compute(sim::Nanos ns) { runtime_.compute(ns); }

void SgxEnv::alloc_pages(std::uint64_t pages) { runtime_.alloc_pages(pages); }

void SgxEnv::on_first_request() {
  // Lazy loading of network-stack dependencies plus demand faults of
  // cold code paths (paper §V-B4: the initial request "invokes several
  // OCALLs and ECALLs to load drivers and other network stack
  // dependencies"); once cached, subsequent requests are served fast.
  std::uint64_t pages = kFirstRequestPages;
  if (!runtime_.image().manifest.preheat_enclave) {
    // Without preheat the first requests additionally fault the whole
    // heap working set (the cost preheat moved into the load phase).
    pages += 45'000;
  }
  runtime_.touch_cold_path(pages, kFirstRequestOcalls);
}

void SgxEnv::on_request(std::uint64_t /*request_index*/) {
  // Oversized-EPC paging pressure (Fig. 8): with the EPC sized far
  // beyond the working set, background paging occasionally interrupts a
  // request, adding a small mean penalty and widening the IQR.
  const auto& costs = runtime_.enclave().machine().costs();
  const double configured_gib =
      static_cast<double>(runtime_.image().manifest.enclave_size) /
      static_cast<double>(1ULL << 30);
  const double excess_gib = configured_gib - 0.5;
  if (excess_gib <= 0) return;
  const double p = costs.paging_rate_per_gib * excess_gib;
  if (rng_.uniform01() < p) {
    runtime_.page_swap(1 + rng_.uniform(24));
  }
}

PakaService::PakaService(std::string name, sgx::Machine& machine,
                         net::Bus& bus, PakaOptions options)
    : machine_(machine),
      bus_(bus),
      name_(std::move(name)),
      options_(options),
      host_env_(bus.clock()),
      server_(name_, host_env_, bus.costs()),
      secret_ctx_(sgx::EnclaveContext::container(name_)) {
  signer_key_ = machine_.rng().bytes(32);
}

PakaService::~PakaService() {
  if (deployed_) {
    bus_.detach(name_);
  }
}

net::ExecutionEnv& PakaService::env() {
  if (sgx_env_ != nullptr) return *sgx_env_;
  return host_env_;
}

const sgx::TransitionCounters* PakaService::sgx_counters() const {
  return runtime_ != nullptr && runtime_->booted()
             ? &runtime_->counters()
             : nullptr;
}

sgx::Quote PakaService::quote(ByteView report_data) {
  if (runtime_ == nullptr || !runtime_->booted()) {
    throw std::logic_error(
        "PakaService: no enclave to attest (container isolation)");
  }
  return sgx::generate_quote(runtime_->enclave(), report_data);
}

sgx::Quote PakaService::identity_quote() {
  const auto identity = bus_.server_identity(name_);
  if (!identity) {
    throw std::logic_error("PakaService: not attached to the bus");
  }
  return quote(crypto::Sha256::digest(*identity));
}

sim::Nanos PakaService::deploy() {
  if (deployed_) throw std::logic_error("PakaService: already deployed");
  if (!routes_registered_) {
    register_routes();
    routes_registered_ = true;
  }
  server_.profile().alloc_pages = request_alloc_pages();

  sim::Nanos load_time = 0;
  if (options_.isolation == Isolation::kSgx) {
    libos::GscBuildOptions build;
    build.enclave_size = options_.epc_size;
    build.max_threads = options_.max_threads;
    build.preheat_enclave = options_.preheat;
    build.exitless = options_.exitless;
    build.app_extra_bytes = app_extra_bytes();
    // Stable per-module rootfs variation.
    build.rootfs_seed = static_cast<std::uint32_t>(
        std::hash<std::string>{}(name_) & 0xffff);
    const libos::GscImage image =
        libos::gsc_build(name_, build, signer_key_);
    runtime_ = std::make_unique<libos::GramineRuntime>(machine_, image);
    load_time = runtime_->boot();
    sgx_env_ = std::make_unique<SgxEnv>(*runtime_, bus_.rng());
    server_.rebind_env(*sgx_env_);
    // From here on this module's declassifications are enclave-backed:
    // unsealing-grade exposure of long-term keys becomes legal (KI 27)
    // and is audited under secret.declassify.*.shielded.
    secret_ctx_ =
        sgx::EnclaveContext::enclave_backed(name_, &runtime_->enclave());
  } else {
    machine_.clock().advance(kContainerStart);
    load_time = kContainerStart;
    server_.rebind_env(host_env_);
    secret_ctx_ = sgx::EnclaveContext::container(name_);
  }

  // Server startup inside the deployment environment: TLS certificate
  // loading, listening socket + epoll setup and worker-pool
  // synchronisation. Under SGX this is the "~650 EENTER and EEXIT
  // instructions" the paper attributes to deploying the Pistache server
  // in the enclave (§V-B5).
  net::ExecutionEnv& run_env = env();
  for (int cert = 0; cert < 3; ++cert) {
    run_env.syscall(Sys::kOpen);
    run_env.syscall(Sys::kRead, 2'200);
    run_env.syscall(Sys::kClose);
  }
  run_env.syscall(Sys::kSocket);
  run_env.syscall(Sys::kBind);
  run_env.syscall(Sys::kListen);
  run_env.syscall(Sys::kEpollCreate);
  for (int i = 0; i < 200; ++i) run_env.syscall(Sys::kFutex);
  for (int i = 0; i < 105; ++i) {
    run_env.syscall(i % 2 == 0 ? Sys::kStat : Sys::kMmap);
  }

  // Concurrency limit of the module's request pipeline: the container
  // worker pool, or the enclave TCS budget net of Gramine helpers.
  net::ServiceQueue::Config queue;
  queue.workers = options_.isolation == Isolation::kSgx
                      ? options_.sgx_workers()
                      : kContainerWorkers;
  queue.capacity = kQueueCapacity;
  server_.queue().configure(queue);

  server_.reset_served();
  bus_.attach(server_);
  deployed_ = true;
  S5G_LOG(LogLevel::kInfo, "paka")
      << name_ << " deployed (" << env().kind() << ") in "
      << sim::to_s(load_time) << " s";
  return load_time;
}

void PakaService::undeploy() {
  if (!deployed_) return;
  bus_.detach(name_);
  // The enclave (if any) is going away: drop back to a container-grade
  // context before the backing pointer dies.
  secret_ctx_ = sgx::EnclaveContext::container(name_);
  if (runtime_ != nullptr) {
    server_.rebind_env(host_env_);
    sgx_env_.reset();
    runtime_.reset();  // tears the enclave down, releasing EPC
  }
  deployed_ = false;
}

}  // namespace shield5g::paka
