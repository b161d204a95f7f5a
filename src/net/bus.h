// The simulated Docker bridge: servers, connections and request routing.
//
// Services attach to the bus by name (the OAI docker-compose service
// names). A request crosses the bridge as real TLS-protected wire bytes
// (between co-located NFs, as the message itself with the record work
// charged instead of run); the bus charges client-side costs, bridge
// latency, and drives the server's request pipeline, which charges its
// own environment (container or SGX). The pipeline measures exactly the
// quantities the paper reports:
//   L_F  — execution time of the AKA function (JSON + crypto + handler),
//   L_T  — request-received .. response-sent inside the module,
//   R    — response time observed by the calling VNF.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "crypto/cost.h"
#include "net/env.h"
#include "net/http.h"
#include "net/router.h"
#include "net/service_queue.h"
#include "net/tls.h"
#include "sim/clock.h"

namespace shield5g::net {

/// Network & software-stack cost constants (the container baseline; the
/// SGX deltas come from the environment the server runs in).
struct NetCosts {
  sim::Nanos bridge_one_way = 55 * sim::kMicrosecond;
  double bridge_per_byte_ns = 1.0;

  sim::Nanos handler_fixed_ns = 14 * sim::kMicrosecond;
  sim::Nanos http_parse_fixed = 2 * sim::kMicrosecond;
  double http_parse_per_byte = 12.0;
  sim::Nanos http_ser_fixed = 1'500;
  double http_ser_per_byte = 8.0;
  sim::Nanos json_parse_fixed = 3'500;
  double json_parse_per_byte = 55.0;
  sim::Nanos json_dump_fixed = 2'500;
  double json_dump_per_byte = 30.0;
  sim::Nanos tls_record_fixed = 1'800;
  sim::Nanos client_fixed_ns = 6 * sim::kMicrosecond;

  /// Multiplicative log-normal jitter applied to compute and bridge
  /// charges (gives the paper's box plots their spread).
  double jitter_sigma = 0.045;

  crypto::PrimitiveCosts primitives;

  sim::Nanos http_parse_ns(std::size_t bytes) const noexcept {
    return http_parse_fixed +
           static_cast<sim::Nanos>(http_parse_per_byte * double(bytes));
  }
  sim::Nanos http_ser_ns(std::size_t bytes) const noexcept {
    return http_ser_fixed +
           static_cast<sim::Nanos>(http_ser_per_byte * double(bytes));
  }
  sim::Nanos json_parse_ns(std::size_t bytes) const noexcept {
    if (bytes == 0) return 0;
    return json_parse_fixed +
           static_cast<sim::Nanos>(json_parse_per_byte * double(bytes));
  }
  sim::Nanos json_dump_ns(std::size_t bytes) const noexcept {
    if (bytes == 0) return 0;
    return json_dump_fixed +
           static_cast<sim::Nanos>(json_dump_per_byte * double(bytes));
  }
};

/// Per-request server activity outside the handler window: epoll wait,
/// reactor-to-worker futex handoffs, timer maintenance. Under SGX every
/// entry is an OCALL round trip — these dominate R_S^SGX (paper §V-B5:
/// the transitions "are only invoked during network I/O operations").
struct RequestProfile {
  std::vector<std::pair<Sys, std::uint32_t>> pre_window = default_pre();
  std::uint32_t recv_chunks = 3;
  std::uint32_t send_chunks = 3;
  /// Heap churn per request (EPC allocation pressure under SGX).
  std::uint64_t alloc_pages = 2;

  static std::vector<std::pair<Sys, std::uint32_t>> default_pre();
};

class Server {
 public:
  Server(std::string name, ExecutionEnv& env, const NetCosts& costs);
  virtual ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const noexcept { return name_; }
  Router& router() noexcept { return router_; }
  ExecutionEnv& env() noexcept { return *env_; }
  RequestProfile& profile() noexcept { return profile_; }

  /// Admission queue + worker-pool occupancy: every request through the
  /// bus passes it before the service window opens. With a single
  /// in-flight caller every wait is zero; under the open-loop engine it
  /// charges real queueing delay.
  ServiceQueue& queue() noexcept { return queue_; }
  const ServiceQueue& queue() const noexcept { return queue_; }

  /// Swaps the execution environment (used when re-deploying the same
  /// module from container to enclave).
  void rebind_env(ExecutionEnv& env) noexcept { env_ = &env; }

  struct ServeResult {
    /// The TLS-protected response; empty when the response was handed
    /// back co-located instead.
    PooledBuffer record_out;
    /// The handler's response, engaged only when handed back co-located.
    HttpResponse response;
    /// Wire size of the response record, real or skipped (the client's
    /// charges and syscall byte counts derive from it).
    std::size_t record_out_size = 0;
    sim::Nanos l_f = 0;
    sim::Nanos l_t = 0;
    bool ok = false;
  };

  /// Runs the server-side pipeline for one request whose record is
  /// `in_wire` bytes. On the wire, `record_in` is that protected record
  /// and `colocated` is null: the record is decrypted in place, the
  /// parsed request views alias it while the handler runs, its slab
  /// goes back to the thread's pool on return, and the response comes
  /// back as a pooled record the same way. Co-located (DESIGN.md §18),
  /// `colocated` is the caller's message and `record_in` is empty: the
  /// record passes are charged instead of run, and a wire-transparent
  /// response is handed back as-is. Every other charge, syscall and RNG
  /// draw is the same either way. Pre: colocated is null or
  /// wire_transparent(*colocated).
  ServeResult serve(PooledBuffer record_in, const HttpRequest* colocated,
                    std::size_t in_wire, TlsSession& session,
                    sim::VirtualClock& clock, Rng& jitter);

  /// Latency samples in microseconds, accumulated per request.
  Samples& lf_us() noexcept { return lf_us_; }
  Samples& lt_us() noexcept { return lt_us_; }
  std::uint64_t requests_served() const noexcept { return served_; }
  void reset_stats();
  /// Marks the next request as a "first" request again (fresh deploy).
  void reset_served() noexcept { served_ = 0; }

 private:
  std::string name_;
  ExecutionEnv* env_;
  const NetCosts* costs_;
  Router router_;
  RequestProfile profile_;
  ServiceQueue queue_;
  Samples lf_us_;
  Samples lt_us_;
  std::uint64_t served_ = 0;
};

class Bus {
 public:
  explicit Bus(sim::VirtualClock& clock, std::uint64_t seed = 0xb05b05ULL);

  sim::VirtualClock& clock() noexcept { return clock_; }
  const NetCosts& costs() const noexcept { return costs_; }
  Rng& rng() noexcept { return rng_; }

  /// Deployment/trust domain of an attached server (DESIGN.md §18). Two
  /// servers share a domain only when they run in one address space
  /// with no isolation boundary between them — the monolithic layout.
  /// kIsolatedDomain (the default) means "this endpoint trusts nothing
  /// at memory level": container and SGX deployments always keep it, so
  /// their hops always pay the full wire ceremony.
  using TrustDomain = std::uint32_t;
  static constexpr TrustDomain kIsolatedDomain = 0;

  /// Domain stamped on every subsequent attach(). Set before the VNFs
  /// attach (slice construction does); never retroactive.
  void set_attach_domain(TrustDomain domain) noexcept {
    attach_domain_ = domain;
  }

  /// Co-located delivery fast path: on by default; parity tests turn it
  /// off per bus, because the wire path is the oracle. Only ever taken
  /// between two attached endpoints of the same non-isolated trust
  /// domain with fault injection disabled; virtual time, op counts and
  /// digests are byte-identical either way.
  void set_fastpath(bool enabled) noexcept { fastpath_ = enabled; }
  /// Requests this bus delivered co-located (also counted globally as
  /// bus.fastpath.hit); response-leg fallbacks count as hits too — the
  /// request leg was still zero-wire.
  std::uint64_t fastpath_hits() const noexcept { return fastpath_hits_; }

  /// Attaches a server; a TLS identity is generated for it.
  void attach(Server& server);
  void detach(std::string_view name);
  Server* find(std::string_view name) noexcept;

  /// TLS session resumption: when enabled, every server attached from
  /// then on gets a TicketIssuer, handshakes switch to the resumable
  /// family, and the bus caches the latest ticket per (client, server)
  /// pair — so the per-request connections skip the scalar mults on
  /// every contact after the first. MUST be set before attach() for the
  /// issuer key draws to land; when left disabled (the default) the
  /// wire bytes and RNG stream are bit-identical to the legacy path.
  /// Counters: tls.resume.{hit,miss,reject} (never fed to digests).
  void set_resumption(bool enabled) noexcept { resumption_ = enabled; }
  bool resumption() const noexcept { return resumption_; }

  /// Ephemeral-key precompute pool consumed by the client side of full
  /// handshakes (nullptr = generate from the bus RNG, the legacy path).
  void set_eph_pool(crypto::EphemeralKeyPool* pool) noexcept {
    eph_pool_ = pool;
  }

  /// Fault injection on the bridge (co-residency noise, congested
  /// vswitch): records corrupted in flight fail the server's TLS check;
  /// dropped responses surface as transport errors after a
  /// retransmission timeout.
  struct FaultPlan {
    double corrupt_record_prob = 0.0;
    double drop_response_prob = 0.0;
    sim::Nanos retransmit_timeout = 200 * sim::kMillisecond;
  };
  void set_fault_plan(FaultPlan plan) noexcept { faults_ = plan; }
  std::uint64_t faults_injected() const noexcept { return faults_injected_; }

  /// Pinned TLS public key of an attached server (what a client
  /// certificate check — or an RA-TLS quote — must bind to).
  std::optional<crypto::X25519Key> server_identity(
      std::string_view name) const;

  struct Exchange {
    HttpResponse response;
    sim::Nanos l_f = 0;        // server handler window
    sim::Nanos l_t = 0;        // server request window
    sim::Nanos queue_ns = 0;   // time spent in the server's FIFO queue
    sim::Nanos response_ns = 0;  // client-observed response time
    bool transport_ok = false;
  };

  /// Performs one request from `from` (an arbitrary client label) to
  /// the server attached as `to` over a connection of its own, as OAI's
  /// one-shot libcurl clients do: TCP connect plus TLS handshake before
  /// the request, close after the response. `client_env` charges the
  /// client-side work; pass nullptr for an ambient host client.
  Exchange request(std::string_view from, std::string_view to,
                   const HttpRequest& req, ExecutionEnv* client_env = nullptr);

 private:
  // Attached service names are interned to dense 32-bit ids once; from
  // then on every request resolves servers and resumption tickets
  // through id-keyed tables — no string-pair keys, no per-request
  // temporary strings, no tree walks.
  struct Attachment {
    Server* server = nullptr;  // null = id known but nothing attached
    TlsIdentity identity;
    // Session-ticket authority, present only under resumption (so the
    // legacy path draws no extra RNG bytes at attach time).
    std::unique_ptr<TicketIssuer> issuer;
    TrustDomain domain = kIsolatedDomain;
  };
  struct Connection {
    std::optional<TlsSession> client;
    std::optional<TlsSession> server;
  };
  /// Client-side resumption state per (from, to) pair: the latest
  /// ticket and the secret it binds. Outlives connections — this is
  /// what lets one-shot clients resume.
  struct TicketState {
    Bytes ticket;
    Secret<32> secret;
  };

  /// Id for `name`, creating one (and an empty attachment slot) if new.
  std::uint32_t intern(std::string_view name);
  /// Id for `name` if it was ever interned; never inserts, so client
  /// labels only grow the tables under resumption.
  std::optional<std::uint32_t> lookup(std::string_view name) const noexcept;
  static std::uint64_t pair_key(std::uint32_t from, std::uint32_t to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Opens one connection (TCP round trip + TLS handshake). With
  /// resumption on, `tickets` (the pair's cached state, null exactly
  /// when resumption is off) drives a resumed handshake when a ticket
  /// is present and is updated with the freshly issued one; without
  /// resumption this is the legacy byte-identical handshake.
  Connection open_connection(Attachment& target, ExecutionEnv& client_env,
                             TicketState* tickets);
  sim::Nanos bridge_ns(std::size_t bytes);
  double jitter();

  /// True when `from` and `to` may use co-located delivery for `req`
  /// (fast path armed, same non-isolated domain, no fault injection,
  /// lossless round trip).
  bool fastpath_eligible(std::string_view from, const Attachment& target,
                         const HttpRequest& req) const noexcept;

  sim::VirtualClock& clock_;
  NetCosts costs_;
  Rng rng_;
  bool fastpath_ = true;
  TrustDomain attach_domain_ = kIsolatedDomain;
  std::uint64_t fastpath_hits_ = 0;
  bool resumption_ = false;
  crypto::EphemeralKeyPool* eph_pool_ = nullptr;
  FaultPlan faults_;
  std::uint64_t faults_injected_ = 0;
  std::deque<std::string> names_;  // stable storage behind ids_ keys
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<Attachment> servers_;  // indexed by interned id
  /// One entry per (client, server) pair ever contacted under
  /// resumption: a slice's VNF and P-AKA names plus the orchestrator,
  /// so the map stays small without a bound. Map nodes are
  /// pointer-stable, which is what lets a TicketState* ride through
  /// open_connection().
  std::map<std::uint64_t, TicketState> tickets_;
  HostEnv ambient_client_;
};

}  // namespace shield5g::net
