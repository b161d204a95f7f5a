// Network substrate tests: HTTP framing, routing, TLS record protection,
// the bus request pipeline and its latency accounting.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "crypto/op_count.h"
#include "net/bus.h"
#include "net/env.h"
#include "net/http.h"
#include "net/router.h"
#include "net/tls.h"
#include "sim/clock.h"

namespace shield5g::net {
namespace {

// ---------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = Method::kPost;
  req.path = "/paka/v1/generate-av";
  req.headers.set("content-type", "application/json");
  req.body = "{\"rand\":\"00\"}";
  const auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kPost);
  EXPECT_EQ(parsed->path, req.path);
  EXPECT_EQ(parsed->headers.at("content-type"), "application/json");
  EXPECT_EQ(parsed->body, req.body);
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp = HttpResponse::json(201, "{\"ok\":true}");
  const auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 201);
  EXPECT_EQ(parsed->body, "{\"ok\":true}");
}

TEST(Http, AllMethodsSerialize) {
  for (Method m : {Method::kGet, Method::kPost, Method::kPut,
                   Method::kDelete, Method::kPatch}) {
    HttpRequest req;
    req.method = m;
    req.path = "/x";
    const auto parsed = HttpRequest::parse(req.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->method, m);
  }
}

TEST(Http, MalformedInputsRejected) {
  EXPECT_FALSE(HttpRequest::parse(to_bytes("garbage")).has_value());
  EXPECT_FALSE(HttpRequest::parse(to_bytes("GET /x HTTP/1.1\r\n"))
                   .has_value());  // missing blank line
  EXPECT_FALSE(
      HttpRequest::parse(
          to_bytes("GET /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nab"))
          .has_value());  // body shorter than declared
  EXPECT_FALSE(HttpResponse::parse(to_bytes("\r\n\r\n")).has_value());
}

TEST(Http, EmptyBodyAllowed) {
  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/paka/v1/health";
  const auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->body.empty());
}

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

TEST(RouterTest, ExactAndParameterisedRoutes) {
  Router router;
  router.add(Method::kGet, "/health",
             [](const RequestView&, const PathParams&) {
               return HttpResponse::json(200, "{}");
             });
  router.add(Method::kGet, "/subscribers/:supi/data",
             [](const RequestView&, const PathParams& params) {
               return HttpResponse::json(200,
                                         "{\"supi\":\"" + params.at("supi") +
                                             "\"}");
             });

  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/health";
  EXPECT_EQ(router.route(req).status, 200);

  req.path = "/subscribers/001010000000001/data";
  const HttpResponse resp = router.route(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("001010000000001"), std::string::npos);
}

TEST(RouterTest, NotFoundAndMethodNotAllowed) {
  Router router;
  router.add(Method::kGet, "/only-get",
             [](const RequestView&, const PathParams&) {
               return HttpResponse::json(200, "{}");
             });
  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/missing";
  EXPECT_EQ(router.route(req).status, 404);
  req.path = "/only-get";
  req.method = Method::kPost;
  EXPECT_EQ(router.route(req).status, 405);
}

TEST(RouterTest, SegmentCountMustMatch) {
  Router router;
  router.add(Method::kGet, "/a/:x",
             [](const RequestView&, const PathParams&) {
               return HttpResponse::json(200, "{}");
             });
  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/a";
  EXPECT_EQ(router.route(req).status, 404);
  req.path = "/a/b/c";
  EXPECT_EQ(router.route(req).status, 404);
  req.path = "/a/b";
  EXPECT_EQ(router.route(req).status, 200);
}

// ---------------------------------------------------------------------
// TLS
// ---------------------------------------------------------------------

class TlsFixture : public ::testing::Test {
 protected:
  Rng rng_{77};
  TlsIdentity server_id_ = TlsIdentity::generate(rng_);

  std::pair<TlsSession, TlsSession> handshake() {
    Bytes hello;
    TlsSession client = TlsSession::client_connect(
        server_id_.key.public_key, rng_, hello);
    Bytes server_hello;
    auto server =
        TlsSession::server_accept(server_id_.key, hello, server_hello);
    EXPECT_TRUE(server.has_value());
    return {std::move(client), std::move(*server)};
  }
};

TEST_F(TlsFixture, RecordRoundTripBothDirections) {
  auto [client, server] = handshake();
  const Bytes msg = to_bytes("POST /paka/v1/generate-av ...");
  const Bytes record = client.protect(msg);
  EXPECT_GT(record.size(), msg.size());  // header + MAC overhead
  const auto plain = server.unprotect(record);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, msg);

  const Bytes reply = server.protect(to_bytes("200 OK"));
  const auto back = client.unprotect(reply);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(to_string(*back), "200 OK");
}

TEST_F(TlsFixture, SequenceNumbersPreventReplay) {
  auto [client, server] = handshake();
  const Bytes record = client.protect(to_bytes("msg-1"));
  ASSERT_TRUE(server.unprotect(record).has_value());
  // Replaying the same record fails: the receive sequence moved on.
  EXPECT_FALSE(server.unprotect(record).has_value());
}

TEST_F(TlsFixture, TamperedRecordRejected) {
  auto [client, server] = handshake();
  Bytes record = client.protect(to_bytes("sensitive"));
  record[7] ^= 0x01;
  EXPECT_FALSE(server.unprotect(record).has_value());
}

TEST_F(TlsFixture, CiphertextHidesPlaintext) {
  auto [client, server] = handshake();
  const Bytes msg = to_bytes("kausf=deadbeefdeadbeefdeadbeef");
  const Bytes record = client.protect(msg);
  EXPECT_EQ(to_string(ByteView(record)).find("kausf"), std::string::npos);
}

TEST_F(TlsFixture, WrongServerKeyBreaksSession) {
  Bytes hello;
  TlsSession client =
      TlsSession::client_connect(server_id_.key.public_key, rng_, hello);
  const TlsIdentity rogue = TlsIdentity::generate(rng_);
  Bytes server_hello;
  auto mitm = TlsSession::server_accept(rogue.key, hello, server_hello);
  ASSERT_TRUE(mitm.has_value());
  // The rogue server derives different keys: records do not verify.
  const Bytes record = client.protect(to_bytes("secret"));
  EXPECT_FALSE(mitm->unprotect(record).has_value());
}

TEST_F(TlsFixture, MalformedHelloRejected) {
  Bytes server_hello;
  EXPECT_FALSE(TlsSession::server_accept(server_id_.key, Bytes(8, 1),
                                         server_hello)
                   .has_value());
}

TEST_F(TlsFixture, ResumptionDisabledServerVsTicketPresentingClient) {
  // A client that (wrongly) speaks the resumable dialect to a legacy
  // server: the 0x02 hello is structurally valid for the legacy parser
  // (>= 32 bytes), so the server derives keys from what it thinks is an
  // ephemeral — but they can never match the client's KDF-only keys.
  // The failure must surface as a clean record-verify failure, exactly
  // like any wrong-key handshake, never a crash or a silent success.
  TicketIssuer issuer{SecretView(Bytes(32, 0x11)),
                      TicketIssuer::kDefaultLifetimeNs};
  Bytes full_hello, full_server_hello;
  auto full = TlsSession::client_connect_resumable(
      server_id_.key.public_key, rng_, full_hello);
  auto full_accept = TlsSession::server_accept_resumable(
      server_id_.key, full_hello, issuer, 0, rng_, full_server_hello);
  const auto ticket = TlsSession::hello_ticket(full_server_hello);
  ASSERT_TRUE(ticket.has_value());

  Bytes resumed_hello, legacy_hello_out;
  auto resumed = TlsSession::client_resume(full.resumption_secret, *ticket,
                                           rng_, resumed_hello);
  auto legacy = TlsSession::server_accept(server_id_.key, resumed_hello,
                                          legacy_hello_out);
  ASSERT_TRUE(legacy.has_value());  // structurally fine, cryptographically not
  const Bytes record = resumed.session.protect(to_bytes("mismatched"));
  EXPECT_FALSE(legacy->unprotect(record).has_value());
}

TEST_F(TlsFixture, LegacyHelloRejectedByResumableServer) {
  // The reverse mismatch: an un-versioned legacy hello hitting the
  // resumable acceptor. The first padding byte (0x5a) is no known
  // version, so the accept fails closed instead of deriving keys from
  // misaligned bytes.
  Bytes hello;
  TlsSession client =
      TlsSession::client_connect(server_id_.key.public_key, rng_, hello);
  (void)client;
  ASSERT_NE(hello[0], 0x01);
  ASSERT_NE(hello[0], 0x02);
  TicketIssuer issuer{SecretView(Bytes(32, 0x12)),
                      TicketIssuer::kDefaultLifetimeNs};
  Bytes server_hello;
  auto accept = TlsSession::server_accept_resumable(
      server_id_.key, hello, issuer, 0, rng_, server_hello);
  EXPECT_FALSE(accept.session.has_value());
  EXPECT_FALSE(accept.resumed);
}

// ---------------------------------------------------------------------
// Bus + server pipeline
// ---------------------------------------------------------------------

class BusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>("echo", env_, bus_.costs());
    server_->router().add(
        Method::kPost, "/echo",
        [](const RequestView& req, const PathParams&) {
          return HttpResponse::json(200, std::string(req.body));
        });
    bus_.attach(*server_);
  }

  sim::VirtualClock clock_;
  Bus bus_{clock_};
  HostEnv env_{clock_};
  std::unique_ptr<Server> server_;

  HttpRequest echo_request() {
    HttpRequest req;
    req.method = Method::kPost;
    req.path = "/echo";
    req.body = "{\"x\":1}";
    return req;
  }
};

TEST_F(BusFixture, RequestResponseCarriesPayload) {
  const auto exchange = bus_.request("client", "echo", echo_request());
  EXPECT_TRUE(exchange.transport_ok);
  EXPECT_EQ(exchange.response.status, 200);
  EXPECT_EQ(exchange.response.body, "{\"x\":1}");
}

TEST_F(BusFixture, TimingsAreOrderedAndPositive) {
  const auto exchange = bus_.request("client", "echo", echo_request());
  EXPECT_GT(exchange.l_f, 0u);
  EXPECT_GT(exchange.l_t, exchange.l_f);      // L_T = L_F + L_N
  EXPECT_GT(exchange.response_ns, exchange.l_t);  // R includes bridge etc.
  // Sanity band for a container deployment (paper Fig. 9/10).
  EXPECT_GT(sim::to_us(exchange.l_f), 5.0);
  EXPECT_LT(sim::to_us(exchange.l_f), 200.0);
  EXPECT_LT(sim::to_us(exchange.response_ns), 3'000.0);
}

TEST_F(BusFixture, VirtualTimeAdvances) {
  const sim::Nanos t0 = clock_.now();
  bus_.request("client", "echo", echo_request());
  EXPECT_GT(clock_.now(), t0);
}

TEST_F(BusFixture, UnknownServerThrows) {
  EXPECT_THROW(bus_.request("client", "nope", echo_request()),
               std::runtime_error);
}

TEST_F(BusFixture, DuplicateAttachRejected) {
  Server dup("echo", env_, bus_.costs());
  EXPECT_THROW(bus_.attach(dup), std::logic_error);
}

TEST_F(BusFixture, EveryExchangePaysItsOwnHandshake) {
  // One connection per request: nothing is amortized across exchanges.
  // Each legacy handshake runs 3 X25519 ops (the client's fused
  // keypair+shared counts 2, the server's shared 1), and identical
  // exchanges execute identical record work.
  std::vector<crypto::OpCounts> per_exchange;
  for (int i = 0; i < 4; ++i) {
    const crypto::OpCounts before = crypto::op_counts();
    const auto exchange = bus_.request("client", "echo", echo_request());
    per_exchange.push_back(crypto::op_counts() - before);
    EXPECT_TRUE(exchange.transport_ok);
    EXPECT_EQ(exchange.response.status, 200);
  }
  for (std::size_t i = 0; i < per_exchange.size(); ++i) {
    EXPECT_EQ(per_exchange[i].x25519_ops, 3u) << "exchange " << i;
    EXPECT_EQ(per_exchange[i].aes_blocks, per_exchange[0].aes_blocks)
        << "exchange " << i;
    EXPECT_EQ(per_exchange[i].sha256_blocks, per_exchange[0].sha256_blocks)
        << "exchange " << i;
  }
}

TEST_F(BusFixture, ServerStatsAccumulate) {
  for (int i = 0; i < 5; ++i) {
    bus_.request("client", "echo", echo_request());
  }
  EXPECT_EQ(server_->requests_served(), 5u);
  EXPECT_EQ(server_->lf_us().count(), 5u);
  EXPECT_EQ(server_->lt_us().count(), 5u);
  server_->reset_stats();
  EXPECT_EQ(server_->lf_us().count(), 0u);
}

TEST_F(BusFixture, RoutingErrorsSurfaceAsHttpStatus) {
  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/missing";
  const auto exchange = bus_.request("client", "echo", req);
  EXPECT_TRUE(exchange.transport_ok);
  EXPECT_EQ(exchange.response.status, 404);
}

TEST_F(BusFixture, DetachThenRequestThrows) {
  bus_.detach("echo");
  EXPECT_THROW(bus_.request("client", "echo", echo_request()),
               std::runtime_error);
}

TEST_F(BusFixture, LargerPayloadCostsMore) {
  HttpRequest small = echo_request();
  const sim::Nanos t0 = clock_.now();
  bus_.request("client", "echo", small);
  const sim::Nanos small_cost = clock_.now() - t0;

  HttpRequest big = echo_request();
  big.body = "{\"blob\":\"" + std::string(8'000, 'a') + "\"}";
  const sim::Nanos t1 = clock_.now();
  bus_.request("client", "echo", big);
  const sim::Nanos big_cost = clock_.now() - t1;
  EXPECT_GT(big_cost, small_cost);
}

// ---------------------------------------------------------------------
// Co-located fast-path parity (DESIGN.md §18)
//
// The wire path is the oracle: a fast-path delivery must be
// indistinguishable from it in everything except host work — same
// handler-observed request, same client-observed response, same virtual
// time, same primitive op counts. Two identical worlds run the same
// exchanges with the fast path forced on vs off and every observable is
// compared field by field.
// ---------------------------------------------------------------------

struct ObservedRequest {
  Method method = Method::kGet;
  std::string path;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  bool operator==(const ObservedRequest& rhs) const {
    return method == rhs.method && path == rhs.path &&
           headers == rhs.headers && body == rhs.body;
  }
};

std::vector<std::pair<std::string, std::string>> headers_of(
    const Headers& headers) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const Headers::View e = headers.entry(i);
    out.emplace_back(std::string(e.key), std::string(e.value));
  }
  return out;
}

/// One self-contained clock+bus+server universe. Both worlds are built
/// identically (same seeds, same handlers); only the fast-path switch
/// differs, so any observable divergence is the fast path's fault.
class FastpathWorld {
 public:
  explicit FastpathWorld(bool fastpath) {
    bus_.set_fastpath(fastpath);
    bus_.set_attach_domain(1);  // co-located: same address space
    server_ = std::make_unique<Server>("echo", env_, bus_.costs());
    server_->router().add(
        Method::kPost, "/echo",
        [this](const RequestView& req, const PathParams&) {
          ObservedRequest seen;
          seen.method = req.method;
          seen.path = std::string(req.path);
          for (std::size_t i = 0; i < req.headers.size(); ++i) {
            seen.headers.emplace_back(std::string(req.headers[i].key),
                                      std::string(req.headers[i].value));
          }
          seen.body = std::string(req.body);
          observed_.push_back(std::move(seen));
          return HttpResponse::json(200, std::string(req.body));
        });
    server_->router().add(
        Method::kGet, "/weird",
        [](const RequestView&, const PathParams&) {
          // Leading-space value: the wire round trip normalizes it
          // away, so this response is NOT wire-transparent and the
          // fast path must fall back to a real record mid-serve.
          HttpResponse resp = HttpResponse::json(200, "{}");
          resp.headers.set("x-odd", " padded");
          return resp;
        });
    bus_.attach(*server_);
    // The fast path only fires between two attached endpoints of the
    // same trust domain — an ambient client label (the RAN side) always
    // takes the wire. Attach a client NF so exchanges originate inside
    // the domain, as NF-to-NF SBI hops do in a monolithic slice.
    client_ = std::make_unique<Server>("client", env_, bus_.costs());
    bus_.attach(*client_);
  }

  struct Outcome {
    std::vector<Bus::Exchange> exchanges;
    sim::Nanos elapsed = 0;
    crypto::OpCounts ops;
  };

  /// Runs `requests` back to back and captures every observable delta.
  Outcome run(
      const std::vector<std::pair<std::string, HttpRequest>>& requests) {
    Outcome out;
    const sim::Nanos t0 = clock_.now();
    const crypto::OpCounts ops0 = crypto::op_counts();
    for (const auto& [target, req] : requests) {
      out.exchanges.push_back(bus_.request("client", target, req));
    }
    out.elapsed = clock_.now() - t0;
    out.ops = crypto::op_counts() - ops0;
    return out;
  }

  /// Fills the echo server's admission queue for the next second (one
  /// worker busy, one request waiting, room for no more), so the next
  /// request to it is shed.
  void saturate() {
    ServiceQueue& queue = server_->queue();
    queue.configure({.workers = 1, .capacity = 1});
    queue.complete(queue.admit(clock_.now()).worker,
                   clock_.now() + sim::kSecond);
    (void)queue.admit(clock_.now());
  }

  Bus& bus() noexcept { return bus_; }
  const std::vector<ObservedRequest>& observed() const { return observed_; }

 private:
  sim::VirtualClock clock_;
  Bus bus_{clock_};
  HostEnv env_{clock_};
  std::unique_ptr<Server> server_;
  std::unique_ptr<Server> client_;
  std::vector<ObservedRequest> observed_;
};

void expect_outcomes_equal(const FastpathWorld::Outcome& on,
                           const FastpathWorld::Outcome& off) {
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.ops.aes_blocks, off.ops.aes_blocks);
  EXPECT_EQ(on.ops.sha256_blocks, off.ops.sha256_blocks);
  EXPECT_EQ(on.ops.x25519_ops, off.ops.x25519_ops);
  ASSERT_EQ(on.exchanges.size(), off.exchanges.size());
  for (std::size_t i = 0; i < on.exchanges.size(); ++i) {
    const Bus::Exchange& a = on.exchanges[i];
    const Bus::Exchange& b = off.exchanges[i];
    EXPECT_EQ(a.transport_ok, b.transport_ok) << "exchange " << i;
    EXPECT_EQ(a.l_f, b.l_f) << "exchange " << i;
    EXPECT_EQ(a.l_t, b.l_t) << "exchange " << i;
    EXPECT_EQ(a.response_ns, b.response_ns) << "exchange " << i;
    EXPECT_EQ(a.response.status, b.response.status) << "exchange " << i;
    EXPECT_EQ(a.response.body, b.response.body) << "exchange " << i;
    EXPECT_EQ(headers_of(a.response.headers), headers_of(b.response.headers))
        << "exchange " << i;
  }
}

HttpRequest parity_request(std::string body) {
  HttpRequest req;
  req.method = Method::kPost;
  req.path = "/echo";
  req.headers.set("content-type", "application/json");
  req.body = std::move(body);
  return req;
}

TEST(FastpathParity, OneShotExchangesAreByteIdentical) {
  std::vector<std::pair<std::string, HttpRequest>> plan;
  for (int i = 0; i < 3; ++i) {
    plan.emplace_back("echo", parity_request("{\"n\":" + std::to_string(i) +
                                             "}"));
  }
  FastpathWorld world_on(true);
  FastpathWorld world_off(false);
  const auto on = world_on.run(plan);
  const auto off = world_off.run(plan);
  expect_outcomes_equal(on, off);
  EXPECT_EQ(world_on.observed().size(), 3u);
  ASSERT_EQ(world_off.observed().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(world_on.observed()[i] == world_off.observed()[i])
        << "handler saw different requests at " << i;
  }
  EXPECT_EQ(world_on.bus().fastpath_hits(), 3u);
  EXPECT_EQ(world_off.bus().fastpath_hits(), 0u);
}

TEST(FastpathParity, ManyHeadersAndLargeBodySurviveZeroCopy) {
  // Past HeaderViews' inline capacity (8) and with a 64 KiB body: the
  // fast path hands the handler an aliasing view of the original
  // request, the wire path a view of the decrypted record — they must
  // agree byte for byte, and cost the same.
  HttpRequest req = parity_request(std::string(64 * 1024, 'x'));
  for (int h = 0; h < 10; ++h) {
    req.headers.set("x-custom-" + std::to_string(h),
                    "value-" + std::to_string(h));
  }
  std::vector<std::pair<std::string, HttpRequest>> plan{{"echo", req}};
  FastpathWorld world_on(true);
  FastpathWorld world_off(false);
  const auto on = world_on.run(plan);
  const auto off = world_off.run(plan);
  expect_outcomes_equal(on, off);
  ASSERT_EQ(world_on.observed().size(), 1u);
  ASSERT_EQ(world_off.observed().size(), 1u);
  EXPECT_TRUE(world_on.observed()[0] == world_off.observed()[0]);
  ASSERT_GT(world_on.observed()[0].headers.size(), 8u);
  EXPECT_EQ(world_on.observed()[0].body.size(), 64u * 1024u);
  EXPECT_EQ(world_on.bus().fastpath_hits(), 1u);
}

TEST(FastpathParity, NonTransparentResponseFallsBackIdentically) {
  // The /weird handler's response does not round-trip the wire
  // losslessly, so the fast path protects a real record mid-serve. The
  // client must still observe exactly what the wire path delivers —
  // including the wire's normalization of the odd header.
  HttpRequest req;
  req.method = Method::kGet;
  req.path = "/weird";
  std::vector<std::pair<std::string, HttpRequest>> plan{{"echo", req}};
  const std::uint64_t fallbacks_before =
      counter_value("bus.fastpath.fallback");
  FastpathWorld world_on(true);
  FastpathWorld world_off(false);
  const auto on = world_on.run(plan);
  const auto off = world_off.run(plan);
  expect_outcomes_equal(on, off);
  // The request leg was still zero-wire: the delivery counts as a hit,
  // and the response leg as a fallback.
  EXPECT_EQ(world_on.bus().fastpath_hits(), 1u);
  EXPECT_EQ(counter_value("bus.fastpath.fallback") - fallbacks_before, 1u);
  EXPECT_EQ(world_off.bus().fastpath_hits(), 0u);
}

TEST(FastpathParity, ShedRequestIsByteIdentical) {
  // A co-located request shed at admission leaves through the wire
  // path's 503 block: same charges up to the rejection, no handler run,
  // and no fast-path hit.
  std::vector<std::pair<std::string, HttpRequest>> plan{
      {"echo", parity_request("{}")}};
  FastpathWorld world_on(true);
  FastpathWorld world_off(false);
  world_on.saturate();
  world_off.saturate();
  const auto on = world_on.run(plan);
  const auto off = world_off.run(plan);
  expect_outcomes_equal(on, off);
  ASSERT_EQ(on.exchanges.size(), 1u);
  EXPECT_EQ(on.exchanges[0].response.status, 503);
  EXPECT_TRUE(world_on.observed().empty());
  EXPECT_EQ(world_on.bus().fastpath_hits(), 0u);
}

TEST(FastpathParity, IneligibleWithoutSharedDomainOrWithFaults) {
  // Isolated-domain attachments (the container/SGX layout) never take
  // the fast path even when enabled.
  sim::VirtualClock clock;
  Bus bus(clock);
  HostEnv env(clock);
  Server server("echo", env, bus.costs());
  server.router().add(Method::kPost, "/echo",
                      [](const RequestView& req, const PathParams&) {
                        return HttpResponse::json(200, std::string(req.body));
                      });
  bus.attach(server);  // default domain: kIsolatedDomain
  const auto exchange = bus.request("client", "echo", parity_request("{}"));
  EXPECT_TRUE(exchange.transport_ok);
  EXPECT_EQ(bus.fastpath_hits(), 0u);

  // Fault injection disqualifies a co-located pair too: degraded
  // transport must exercise the real wire machinery.
  FastpathWorld faulty(true);
  Bus::FaultPlan plan_faults;
  plan_faults.corrupt_record_prob = 0.5;
  faulty.bus().set_fault_plan(plan_faults);
  std::vector<std::pair<std::string, HttpRequest>> plan{
      {"echo", parity_request("{}")}};
  (void)faulty.run(plan);
  EXPECT_EQ(faulty.bus().fastpath_hits(), 0u);
}

TEST_F(TlsFixture, RecordOpCountFormulaMatchesRealRecords) {
  // TlsSession::record_op_counts is the fast path's cost oracle: it
  // must predict the exact primitive counts of protect()/unprotect()
  // at every size class (empty, sub-block, block boundaries, large).
  auto [client, server] = handshake();
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{100},
        std::size_t{1000}, std::size_t{65536}}) {
    const crypto::OpCounts predicted = TlsSession::record_op_counts(n);
    const Bytes msg(n, 0xab);

    const crypto::OpCounts before_protect = crypto::op_counts();
    const Bytes record = client.protect(msg);
    const crypto::OpCounts protect_delta =
        crypto::op_counts() - before_protect;
    EXPECT_EQ(protect_delta.aes_blocks, predicted.aes_blocks) << "n=" << n;
    EXPECT_EQ(protect_delta.sha256_blocks, predicted.sha256_blocks)
        << "n=" << n;
    EXPECT_EQ(protect_delta.x25519_ops, 0u) << "n=" << n;

    const crypto::OpCounts before_unprotect = crypto::op_counts();
    ASSERT_TRUE(server.unprotect(record).has_value()) << "n=" << n;
    const crypto::OpCounts unprotect_delta =
        crypto::op_counts() - before_unprotect;
    EXPECT_EQ(unprotect_delta.aes_blocks, predicted.aes_blocks) << "n=" << n;
    EXPECT_EQ(unprotect_delta.sha256_blocks, predicted.sha256_blocks)
        << "n=" << n;
  }
}

TEST(RequestProfileTest, DefaultPreWindowSizesRequestTransitions) {
  const RequestProfile profile;
  // pre(78) + recv(3) + send(3) + 4 connection-path calls ~= the
  // paper's ~90 EENTER/EEXIT pairs per registration request.
  EXPECT_EQ(profile.pre_window.size(), 78u);
  EXPECT_EQ(profile.recv_chunks + profile.send_chunks, 6u);
}

}  // namespace
}  // namespace shield5g::net
