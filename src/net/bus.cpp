#include "net/bus.h"

#include <stdexcept>

#include "common/hot_stage.h"
#include "common/log.h"

namespace shield5g::net {

namespace {

// Synthetic record pass: bump the thread's primitive counters by
// exactly what one protect/unprotect of `plaintext_len` bytes would
// have executed, and return the virtual-time charge those ops carry.
// This is what keeps OpMeter-derived charges, the global op counts and
// every digest byte-identical when the record crypto never runs.
sim::Nanos charge_record_ops(const NetCosts& costs,
                             std::size_t plaintext_len) {
  const crypto::OpCounts ops = TlsSession::record_op_counts(plaintext_len);
  crypto::OpCounts& counts = crypto::op_counts();
  counts.aes_blocks += ops.aes_blocks;
  counts.sha256_blocks += ops.sha256_blocks;
  return costs.tls_record_fixed +
         static_cast<sim::Nanos>(costs.primitives.ns_for(ops));
}

}  // namespace

std::vector<std::pair<Sys, std::uint32_t>> RequestProfile::default_pre() {
  // Reactor/worker churn between two requests of a Pistache-style
  // server: epoll cycles, futex handoffs between the reactor and the
  // worker, timer maintenance, read-readiness probes. 78 calls here +
  // 3 recv + 3 send + 4 connection-path calls per request reproduce the
  // ~90 EENTERs and ~90 EEXITs per UE registration of Table III.
  std::vector<std::pair<Sys, std::uint32_t>> pre;
  for (int i = 0; i < 6; ++i) pre.emplace_back(Sys::kEpollWait, 0);
  for (int i = 0; i < 24; ++i) pre.emplace_back(Sys::kFutex, 0);
  for (int i = 0; i < 10; ++i) pre.emplace_back(Sys::kTimerFd, 0);
  for (int i = 0; i < 10; ++i) pre.emplace_back(Sys::kEpollCtl, 0);
  for (int i = 0; i < 4; ++i) pre.emplace_back(Sys::kRecv, 0);  // probes
  for (int i = 0; i < 24; ++i) pre.emplace_back(Sys::kFutex, 0);
  return pre;
}

Server::Server(std::string name, ExecutionEnv& env, const NetCosts& costs)
    : name_(std::move(name)), env_(&env), costs_(&costs) {}

void Server::reset_stats() {
  lf_us_.clear();
  lt_us_.clear();
  // A measurement epoch starts against a cold admission queue too: in
  // closed-loop use the clock has already advanced past every
  // busy-until instant so this is a no-op, but back-to-back shard runs
  // over a reused deployment must not inherit occupancy.
  queue_.reset();
}

Server::ServeResult Server::serve(PooledBuffer record_in,
                                  const HttpRequest* colocated,
                                  std::size_t in_wire, TlsSession& session,
                                  sim::VirtualClock& clock, Rng& jitter) {
  ServeResult result;
  if (served_ == 0) env_->on_first_request();
  env_->on_request(served_);

  // Inter-request scheduling churn (outside the L_T window).
  for (const auto& [sys, bytes] : profile_.pre_window) {
    env_->syscall(sys, bytes);
  }

  const sim::Nanos lt_start = clock.now();

  // Receive the request. Record pass: decrypt in place and parse views
  // over the plaintext, which stays alive (and untouched) until the
  // handler returns — or, co-located, charge the pass and view the
  // caller's message, alive just as long.
  for (std::uint32_t i = 0; i < profile_.recv_chunks; ++i) {
    env_->syscall(Sys::kRecv, in_wire / profile_.recv_chunks);
  }
  const std::size_t in_plain = in_wire - TlsSession::kRecordOverhead;
  std::optional<RequestView> request;
  if (colocated != nullptr) {
    env_->compute(charge_record_ops(*costs_, in_plain));
    request = request_view_of(*colocated);
  } else {
    crypto::OpMeter tls_in;
    const bool opened = session.unprotect_in_place(record_in);
    env_->compute(costs_->tls_record_fixed + tls_in.ns(costs_->primitives));
    if (!opened) return result;
    request = RequestView::parse(record_in.view());
  }
  env_->compute(costs_->http_parse_ns(in_plain));
  if (!request) return result;

  // ---- L_F window: the AKA function itself -------------------------
  const sim::Nanos lf_start = clock.now();
  env_->compute(costs_->json_parse_ns(request->body.size()));
  crypto::OpMeter handler_ops;
  HttpResponse response = router_.route(*request);
  const auto handler_fixed = static_cast<sim::Nanos>(
      static_cast<double>(costs_->handler_fixed_ns) *
      jitter.lognormal(1.0, costs_->jitter_sigma));
  env_->compute(handler_fixed + handler_ops.ns(costs_->primitives));
  env_->alloc_pages(profile_.alloc_pages);
  env_->compute(costs_->json_dump_ns(response.body.size()));
  result.l_f = clock.now() - lf_start;

  // Record pass: serialize straight into a pooled record (TLS headroom
  // reserved) and protect it in place — or, co-located, hand the
  // response back and charge the pass. A response that would not
  // survive serialize -> parse losslessly always takes a real record,
  // so the client observes the parsed form the wire delivers.
  const std::size_t out_plain = response.serialized_size();
  result.record_out_size = TlsSession::kRecordOverhead + out_plain;
  env_->compute(costs_->http_ser_ns(out_plain));
  if (colocated != nullptr && wire_transparent(response)) {
    env_->compute(charge_record_ops(*costs_, out_plain));
    result.response = std::move(response);
  } else {
    result.record_out = BufferPool::local().acquire(result.record_out_size,
                                                    TlsSession::kRecordHeader);
    response.serialize_into(result.record_out);
    crypto::OpMeter tls_out;
    session.protect_in_place(result.record_out);
    env_->compute(costs_->tls_record_fixed + tls_out.ns(costs_->primitives));
  }
  for (std::uint32_t i = 0; i < profile_.send_chunks; ++i) {
    env_->syscall(Sys::kSend, result.record_out_size / profile_.send_chunks);
  }
  result.l_t = clock.now() - lt_start;
  result.ok = true;

  ++served_;
  lf_us_.add(sim::to_us(result.l_f));
  lt_us_.add(sim::to_us(result.l_t));
  return result;
}

Bus::Bus(sim::VirtualClock& clock, NetCosts costs, std::uint64_t seed)
    : clock_(clock), costs_(costs), rng_(seed),
      ambient_client_(clock) {}

std::uint32_t Bus::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  names_.emplace_back(name);
  const auto id = static_cast<std::uint32_t>(servers_.size());
  ids_.emplace(std::string_view(names_.back()), id);
  servers_.emplace_back();
  return id;
}

std::optional<std::uint32_t> Bus::lookup(
    std::string_view name) const noexcept {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

void Bus::attach(Server& server) {
  const std::uint32_t id = intern(server.name());
  if (servers_[id].server != nullptr) {
    throw std::logic_error("Bus: duplicate server name " + server.name());
  }
  servers_[id] =
      Attachment{&server, TlsIdentity::generate(rng_), nullptr, attach_domain_};
  if (resumption_) {
    // The ticket master key only draws from the bus RNG under
    // resumption, so the legacy RNG stream stays bit-identical.
    servers_[id].issuer = std::make_unique<TicketIssuer>(
        SecretView(rng_.bytes(32)), TicketIssuer::kDefaultLifetimeNs);
  }
}

void Bus::detach(std::string_view name) {
  if (const auto id = lookup(name)) servers_[*id].server = nullptr;
}

Server* Bus::find(std::string_view name) noexcept {
  const auto id = lookup(name);
  return id ? servers_[*id].server : nullptr;
}

bool Bus::fastpath_eligible(std::string_view from, const Attachment& target,
                            const HttpRequest& req) const noexcept {
  if (!fastpath_ || target.domain == kIsolatedDomain) return false;
  // Fault injection corrupts record bytes in flight; with no bytes in
  // flight there is nothing to corrupt, so faulted buses always take
  // the wire. (With both probabilities zero the wire path draws no
  // fault RNG either — the streams stay aligned.)
  if (faults_.corrupt_record_prob > 0 || faults_.drop_response_prob > 0) {
    return false;
  }
  const auto from_id = lookup(from);
  if (!from_id) return false;  // ambient / one-shot client label
  const Attachment& source = servers_[*from_id];
  if (source.server == nullptr || source.domain != target.domain) return false;
  return wire_transparent(req);
}

double Bus::jitter() { return rng_.lognormal(1.0, costs_.jitter_sigma); }

sim::Nanos Bus::bridge_ns(std::size_t bytes) {
  const double base = static_cast<double>(costs_.bridge_one_way) +
                      costs_.bridge_per_byte_ns * static_cast<double>(bytes);
  return static_cast<sim::Nanos>(base * jitter());
}

Bus::Connection Bus::open_connection(Attachment& target,
                                     ExecutionEnv& client_env,
                                     TicketState* tickets) {
  Server& server = *target.server;
  // TCP handshake: one bridge round trip.
  client_env.syscall(Sys::kSocket);
  client_env.syscall(Sys::kConnect);
  clock_.advance(bridge_ns(60));
  server.env().syscall(Sys::kAccept);
  clock_.advance(bridge_ns(60));

  // One TLS hello round trip: `make_hello` writes the client's hello,
  // `answer` writes the server's reply and reports whether the server
  // accepted. Key work executes for real on both sides and is charged
  // to each side's environment. Every handshake family below is this
  // round trip; they differ only in the TlsSession calls inside the
  // two callbacks. Returns the server's hello.
  const auto hello_round_trip = [&](auto&& make_hello, auto&& answer) {
    Bytes hello;
    crypto::OpMeter client_ops;
    make_hello(hello);
    client_env.compute(client_ops.ns(costs_.primitives));
    client_env.syscall(Sys::kSend, hello.size());
    clock_.advance(bridge_ns(hello.size()));

    server.env().syscall(Sys::kRecv, hello.size());
    Bytes server_hello;
    crypto::OpMeter server_ops;
    const bool accepted = answer(ByteView(hello), server_hello);
    server.env().compute(server_ops.ns(costs_.primitives));
    if (!accepted) throw std::runtime_error("Bus: TLS handshake failed");
    server.env().syscall(Sys::kSend, server_hello.size());
    clock_.advance(bridge_ns(server_hello.size()));
    client_env.syscall(Sys::kRecv, server_hello.size());
    return server_hello;
  };

  Connection conn;

  if (!resumption_ || target.issuer == nullptr) {
    // Legacy TLS handshake: ClientHello (with the client's ephemeral
    // key and modeled cert payload) out, ServerHello/Finished back.
    // This path is the bit-identity oracle: bytes, RNG draws and
    // charges are frozen.
    hello_round_trip(
        [&](Bytes& hello) {
          conn.client.emplace(TlsSession::client_connect(
              target.identity.key.public_key, rng_, hello));
        },
        [&](ByteView hello, Bytes& reply) {
          conn.server =
              TlsSession::server_accept(target.identity.key, hello, reply);
          return conn.server.has_value();
        });
    return conn;
  }

  // Server side of both resumable hellos. A rejected ticket is still an
  // answer: the reply tells the client to retry in full.
  const auto now_ns = static_cast<std::uint64_t>(clock_.now());
  TlsSession::ServerAccept accept;
  const auto answer_resumable = [&](ByteView hello, Bytes& reply) {
    accept = TlsSession::server_accept_resumable(
        target.identity.key, hello, *target.issuer, now_ns, rng_, reply);
    return accept.session.has_value() || accept.retry_full;
  };
  std::optional<TlsSession::ClientHandshake> client;

  // Resumed handshake when a ticket for this (client, server) pair is
  // cached: zero scalar mults on both sides, fresh record keys from the
  // KDF, and a chained next ticket in the reply.
  if (!tickets->ticket.empty()) {
    const Bytes reply = hello_round_trip(
        [&](Bytes& hello) {
          client.emplace(TlsSession::client_resume(
              tickets->secret, tickets->ticket, rng_, hello));
        },
        answer_resumable);
    if (accept.resumed && accept.session) {
      counter_add("tls.resume.hit");
      conn.client.emplace(std::move(client->session));
      conn.server = std::move(accept.session);
      if (auto next = TlsSession::hello_ticket(reply)) {
        tickets->ticket = std::move(*next);
        tickets->secret = client->resumption_secret;
      } else {
        tickets->ticket.clear();  // defensive: never reuse a dead chain
      }
      return conn;
    }
    // Rejected (expired, rotated, replayed or tampered ticket): drop
    // the stale state and fall through to a full handshake on the same
    // connection — the extra round trip above is the fallback's cost.
    counter_add("tls.resume.reject");
    tickets->ticket.clear();
  } else {
    counter_add("tls.resume.miss");
  }

  // Full resumable handshake: first contact for this pair (or a
  // fallback). The server's reply carries the ticket that makes every
  // later contact scalar-mult-free.
  const Bytes reply = hello_round_trip(
      [&](Bytes& hello) {
        client.emplace(TlsSession::client_connect_resumable(
            target.identity.key.public_key, rng_, hello, eph_pool_));
      },
      answer_resumable);
  conn.server = std::move(accept.session);
  conn.client.emplace(std::move(client->session));
  if (auto ticket = TlsSession::hello_ticket(reply)) {
    tickets->ticket = std::move(*ticket);
    tickets->secret = client->resumption_secret;
  }
  return conn;
}

Bus::Exchange Bus::request(std::string_view from, std::string_view to,
                           const HttpRequest& req, ExecutionEnv* client_env) {
  ScopedStage timer(HotStage::kBus);
  const auto to_id = lookup(to);
  if (!to_id || servers_[*to_id].server == nullptr) {
    throw std::runtime_error("Bus: no server attached as '" +
                             std::string(to) + "'");
  }
  // Under resumption, intern the client label and find its ticket
  // state (the cache outlives connections) BEFORE taking the attachment
  // reference: intern() may grow servers_ and reallocate. The pointer
  // stays valid across open_connection: LRU nodes are stable until
  // their own eviction, and this pair was just touched (MRU).
  TicketState* tickets = nullptr;
  if (resumption_) {
    const std::uint64_t key = pair_key(intern(from), *to_id);
    tickets = tickets_.find(key);
    if (tickets == nullptr) {
      const std::uint64_t before = tickets_.evictions();
      tickets = &tickets_.insert(key, TicketState{});
      if (tickets_.evictions() != before) {
        counter_add("bus.ticket.evict", tickets_.evictions() - before);
      }
    }
  }
  Attachment& target = servers_[*to_id];
  Server& server = *target.server;
  ExecutionEnv& client = client_env != nullptr ? *client_env : ambient_client_;

  Exchange exchange;
  const sim::Nanos start = clock_.now();
  // Ends the exchange early with an HTTP-level error response.
  const auto fail = [&](int status, std::string_view detail) {
    exchange.response = HttpResponse::error(status, detail);
    exchange.response_ns = clock_.now() - start;
    return std::move(exchange);
  };

  client.compute(static_cast<sim::Nanos>(
      static_cast<double>(costs_.client_fixed_ns) * jitter()));

  // The request's own connection, closed again after the response.
  Connection conn = open_connection(target, client, tickets);

  // Co-located delivery (DESIGN.md §18): client and server share one
  // address space and trust domain, so the request crosses as the
  // in-memory message and no record bytes exist. The exchange differs
  // from the wire only at its four record passes, each charged from
  // the size its record would have had; every other charge, syscall
  // and RNG draw below is shared, so virtual time and digests cannot
  // tell the two apart. The handshake above ran for real either way.
  const bool colocated = fastpath_eligible(from, target, req);

  // Client: serialize into a pooled record with TLS headroom and
  // protect in place (the payload is written once and encrypted where
  // it sits) — or charge that pass — then send.
  const std::size_t in_plain = req.serialized_size();
  const std::size_t in_wire = TlsSession::kRecordOverhead + in_plain;
  PooledBuffer record;
  client.compute(costs_.http_ser_ns(in_plain));
  if (colocated) {
    client.compute(charge_record_ops(costs_, in_plain));
  } else {
    record = BufferPool::local().acquire(in_wire, TlsSession::kRecordHeader);
    req.serialize_into(record);
    crypto::OpMeter client_tls;
    conn.client->protect_in_place(record);
    client.compute(costs_.tls_record_fixed + client_tls.ns(costs_.primitives));
  }
  client.syscall(Sys::kSend, in_wire);
  // Eligibility requires both fault probabilities to be zero, so the
  // fault checks never draw RNG (or touch a record) co-located.
  if (faults_.corrupt_record_prob > 0 &&
      rng_.uniform01() < faults_.corrupt_record_prob) {
    record.data()[rng_.uniform(record.size())] ^= 0x01;  // bit flip in flight
    ++faults_injected_;
  }
  clock_.advance(bridge_ns(in_wire));

  // Admission: the request waits in the server's bounded FIFO until a
  // worker frees up. The wait is real virtual time — it is what turns
  // offered load into queueing delay under the concurrent engine.
  const sim::Nanos arrival = clock_.now();
  const ServiceQueue::Admission adm = server.queue().admit(arrival);
  if (!adm.accepted) {
    client.syscall(Sys::kClose);
    server.env().syscall(Sys::kClose);
    exchange.transport_ok = true;  // clean HTTP-level rejection
    return fail(503, "server saturated: queue full");
  }
  exchange.queue_ns = adm.start - arrival;
  if (exchange.queue_ns > 0) clock_.advance(exchange.queue_ns);

  // Server pipeline; the request record moves in, the response record
  // moves out — no copies cross the bridge.
  auto served = server.serve(std::move(record), colocated ? &req : nullptr,
                             in_wire, *conn.server, clock_, rng_);
  server.queue().complete(adm.worker, clock_.now());
  exchange.l_f = served.l_f;
  exchange.l_t = served.l_t;
  if (!served.ok) return fail(500, "server pipeline failure");
  if (colocated) {
    // A response-leg fallback counts as a hit too: the request leg was
    // still zero-wire.
    ++fastpath_hits_;
    counter_add("bus.fastpath.hit");
  }

  // Response back over the bridge; client receive path.
  if (faults_.drop_response_prob > 0 &&
      rng_.uniform01() < faults_.drop_response_prob) {
    ++faults_injected_;
    clock_.advance(faults_.retransmit_timeout);
    return fail(504, "response lost in transit");
  }
  clock_.advance(bridge_ns(served.record_out_size));
  client.syscall(Sys::kRecv, served.record_out_size);
  if (served.record_out) {
    // A real record: decrypt in place, parse views, materialize the
    // owning response once at the API boundary. Co-located, this is the
    // fallback for a response that was not wire-transparent.
    if (colocated) counter_add("bus.fastpath.fallback");
    crypto::OpMeter client_tls_in;
    const bool resp_open = conn.client->unprotect_in_place(served.record_out);
    client.compute(costs_.tls_record_fixed +
                   client_tls_in.ns(costs_.primitives));
    if (!resp_open) return fail(500, "record verify failed");
    const auto response = ResponseView::parse(served.record_out.view());
    client.compute(costs_.http_parse_ns(served.record_out.size()));
    if (!response) return fail(500, "malformed response");
    exchange.response = HttpResponse::materialize(*response);
  } else {
    const std::size_t out_plain =
        served.record_out_size - TlsSession::kRecordOverhead;
    client.compute(charge_record_ops(costs_, out_plain));
    client.compute(costs_.http_parse_ns(out_plain));
    exchange.response = std::move(served.response);
  }

  client.syscall(Sys::kClose);
  server.env().syscall(Sys::kClose);
  exchange.transport_ok = true;
  exchange.response_ns = clock_.now() - start;
  return exchange;
}

std::optional<crypto::X25519Key> Bus::server_identity(
    std::string_view name) const {
  const auto id = lookup(name);
  if (!id || servers_[*id].server == nullptr) return std::nullopt;
  return servers_[*id].identity.key.public_key;
}

}  // namespace shield5g::net
