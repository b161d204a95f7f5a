// Host-time microbenchmarks (google-benchmark) of the cryptographic
// primitives and codecs underneath the testbed. Unlike the experiment
// harnesses (which report deterministic virtual time), these measure
// real wall-clock throughput of the from-scratch implementations.
#include <benchmark/benchmark.h>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/ecies.h"
#include "crypto/fe25519.h"
#include "crypto/hmac_sha256.h"
#include "crypto/key_hierarchy.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "crypto/suci.h"
#include "crypto/x25519.h"
#include "crypto/x25519_comb.h"
#include "json/json.h"
#include "net/bus.h"
#include "net/env.h"
#include "net/http.h"
#include "net/router.h"
#include "net/tls.h"
#include "sim/clock.h"
#include "sim/scheduler.h"
#include "nf/aka_core.h"
#include "nf/nas.h"

using namespace shield5g;

namespace {

void BM_Aes128Block(benchmark::State& state) {
  const crypto::Aes128 aes(Bytes(16, 1));
  const Bytes block(16, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.encrypt_block(block));
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_MilenageFullVector(benchmark::State& state) {
  Rng rng(3);
  const crypto::Milenage milenage(rng.bytes(16), rng.bytes(16));
  const Bytes rand = rng.bytes(16), sqn = rng.bytes(6), amf = rng.bytes(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(milenage.compute(rand, sqn, amf));
  }
}
BENCHMARK(BM_MilenageFullVector);

void BM_HeAvGeneration(benchmark::State& state) {
  Rng rng(4);
  const Bytes k = rng.bytes(16), opc = rng.bytes(16), rand = rng.bytes(16);
  const Bytes sqn = rng.bytes(6), amf = {0x80, 0x00};
  const std::string snn = "5G:mnc001.mcc001.3gppnetwork.org";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nf::generate_he_av(k, opc, rand, sqn, amf, snn));
  }
}
BENCHMARK(BM_HeAvGeneration);

// A fresh point on every call, as a TLS server or a SUCI de-conceal
// sees it: each output is the next call's point (perfbench's
// crypto.x25519_us probe does the same). x25519() takes the ladder for
// any point, so this times the Montgomery ladder.
void BM_X25519Ladder(benchmark::State& state) {
  Rng rng(5);
  const Bytes scalar = rng.bytes(32);
  crypto::X25519Key point = crypto::x25519_keypair(rng.bytes(32)).public_key;
  for (auto _ : state) {
    point = crypto::x25519(scalar, point);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_X25519Ladder);

// The same pinned key on every call: the comb cache serves it from its
// first use, as it does a client's server identity.
void BM_X25519Comb(benchmark::State& state) {
  Rng rng(5);
  const Bytes scalar = rng.bytes(32);
  const auto peer = crypto::x25519_keypair(rng.bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_pinned(scalar, peer.public_key));
  }
}
BENCHMARK(BM_X25519Comb);

// One field inversion, the last step of every x25519() call; each
// output is the next input.
void BM_FeInvert(benchmark::State& state) {
  Rng rng(5);
  crypto::fe25519::Fe z = crypto::fe25519::fe_load(rng.bytes(32).data());
  for (auto _ : state) {
    z = crypto::fe25519::fe_invert(z);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_FeInvert);

// The portable comb alone, pinned through its test hook whatever the
// host runs: 64 flat-table selects and mixed additions, no inversion.
void BM_X25519CombPortable(benchmark::State& state) {
  Rng rng(5);
  Bytes scalar = rng.bytes(32);
  scalar[0] &= 248;
  scalar[31] = (scalar[31] & 127) | 64;
  const auto peer = crypto::x25519_keypair(rng.bytes(32));
  const auto table = crypto::detail::comb_build(peer.public_key.data());
  crypto::fe25519::Fe num, den;
  for (auto _ : state) {
    crypto::detail::comb_portable_fraction(*table, scalar.data(), num, den);
    benchmark::DoNotOptimize(num);
    benchmark::DoNotOptimize(den);
  }
}
BENCHMARK(BM_X25519CombPortable);

void BM_SuciConceal(benchmark::State& state) {
  Rng rng(6);
  const auto hn = crypto::x25519_keypair(rng.bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::conceal_supi(
        "001", "01", "0000000001", crypto::SuciScheme::kProfileA,
        hn.public_key, rng.bytes(32)));
  }
}
BENCHMARK(BM_SuciConceal);

// The SUCI's ephemeral key is a wire point, so every de-conceal runs
// the ladder, as it does for the workloads' one-shot SUCIs.
void BM_SuciDeconceal(benchmark::State& state) {
  Rng rng(7);
  const auto hn = crypto::x25519_keypair(rng.bytes(32));
  const crypto::Suci suci = crypto::conceal_supi(
      "001", "01", "0000000001", crypto::SuciScheme::kProfileA,
      hn.public_key, rng.bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::deconceal_suci(suci, hn.private_key));
  }
}
BENCHMARK(BM_SuciDeconceal);

void BM_JsonParseSbiBody(benchmark::State& state) {
  const std::string body =
      "{\"amfId\":\"8000\",\"opc\":\"cd63cb71954a9f4e48a5994e37a02baf\","
      "\"rand\":\"23553cbe9637a89d218ae64dae47bf35\",\"snn\":"
      "\"5G:mnc001.mcc001.3gppnetwork.org\",\"sqn\":\"ff9bb4d0b607\","
      "\"supi\":\"001010000000001\"}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(body));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_JsonParseSbiBody);

void BM_NasEncodeDecode(benchmark::State& state) {
  nf::NasMessage msg;
  msg.type = nf::NasType::kAuthenticationRequest;
  msg.set(nf::NasIe::kRand, Bytes(16, 1));
  msg.set(nf::NasIe::kAutn, Bytes(16, 2));
  msg.set(nf::NasIe::kNgKsi, Bytes{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf::NasMessage::decode(msg.encode()));
  }
}
BENCHMARK(BM_NasEncodeDecode);

// ---------------------------------------------------------------------
// Wire-path benches: the zero-copy pipeline (pooled buffer ->
// serialize_into -> in-place TLS -> aliasing parse) against the owning
// copy path it replaced. Same bytes on the wire either way; only the
// allocation and memmove traffic differs.
// ---------------------------------------------------------------------

net::HttpRequest make_sbi_request() {
  net::HttpRequest req;
  req.method = net::Method::kPost;
  req.path = "/nausf-auth/v1/ue-authentications";
  req.headers.set("content-type", "application/json");
  req.headers.set("accept", "application/json");
  req.body =
      "{\"servingNetworkName\":\"5G:mnc001.mcc001.3gppnetwork.org\","
      "\"supiOrSuci\":\"suci-0-001-01-0000-0-0-0000000001\"}";
  return req;
}

void BM_HttpSerializeParseCopy(benchmark::State& state) {
  const net::HttpRequest req = make_sbi_request();
  for (auto _ : state) {
    const Bytes wire = req.serialize();
    benchmark::DoNotOptimize(net::HttpRequest::parse(wire));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(req.serialized_size()));
}
BENCHMARK(BM_HttpSerializeParseCopy);

void BM_HttpSerializeParseZeroCopy(benchmark::State& state) {
  const net::HttpRequest req = make_sbi_request();
  const std::size_t wire_size = req.serialized_size();
  for (auto _ : state) {
    PooledBuffer buf = BufferPool::local().acquire(
        net::TlsSession::kRecordOverhead + wire_size,
        net::TlsSession::kRecordHeader);
    req.serialize_into(buf);
    benchmark::DoNotOptimize(net::RequestView::parse(buf.view()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_HttpSerializeParseZeroCopy);

void BM_TlsRecordRoundTripInPlace(benchmark::State& state) {
  Rng rng(8);
  const net::TlsIdentity id = net::TlsIdentity::generate(rng);
  Bytes hello;
  net::TlsSession client =
      net::TlsSession::client_connect(id.key.public_key, rng, hello);
  Bytes server_hello;
  auto server = net::TlsSession::server_accept(id.key, hello, server_hello);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Bytes payload = rng.bytes(n);
  for (auto _ : state) {
    PooledBuffer buf =
        BufferPool::local().acquire(net::TlsSession::kRecordOverhead + n,
                                  net::TlsSession::kRecordHeader);
    buf.append(payload);
    client.protect_in_place(buf);
    benchmark::DoNotOptimize(server->unprotect_in_place(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TlsRecordRoundTripInPlace)->Arg(256)->Arg(4096);

void BM_PoolAcquireRelease(benchmark::State& state) {
  BufferPool& pool = BufferPool::local();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const BufferPool::Stats before = BufferPool::thread_stats();
  for (auto _ : state) {
    PooledBuffer buf = pool.acquire(n, 5);
    benchmark::DoNotOptimize(buf.data());
  }
  const BufferPool::Stats after = BufferPool::thread_stats();
  const double acquires =
      static_cast<double>((after.hits - before.hits) +
                          (after.misses - before.misses));
  if (acquires > 0.0) {
    state.counters["hit_rate"] =
        static_cast<double>(after.hits - before.hits) / acquires;
  }
}
BENCHMARK(BM_PoolAcquireRelease)->Arg(256)->Arg(8192)->Arg(65536);

void BM_TlsRecordRoundTrip(benchmark::State& state) {
  Rng rng(8);
  const net::TlsIdentity id = net::TlsIdentity::generate(rng);
  Bytes hello;
  net::TlsSession client =
      net::TlsSession::client_connect(id.key.public_key, rng, hello);
  Bytes server_hello;
  auto server = net::TlsSession::server_accept(id.key, hello, server_hello);
  const Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(server->unprotect(client.protect(payload)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TlsRecordRoundTrip)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------
// Bus round trip: the full SBI exchange (client NF -> bus -> server NF
// -> response) over the real wire path vs the co-located fast path
// (DESIGN.md §18). Every exchange opens its own connection; resumption
// is on, so after the first iteration each one is the resumed one-shot
// exchange that steady/overload's monolithic hops run (0 X25519 mults),
// and the fast path's delta is the record ceremony it skips.
// ---------------------------------------------------------------------

void BM_BusRoundTrip(benchmark::State& state) {
  const bool fastpath = state.range(0) != 0;
  sim::VirtualClock clock;
  net::Bus bus(clock);
  bus.set_fastpath(fastpath);
  bus.set_attach_domain(1);
  bus.set_resumption(true);  // before attach: every server gets an issuer
  net::HostEnv env(clock);
  net::Server server("echo", env, bus.costs());
  server.router().add(net::Method::kPost, "/nausf-auth/v1/ue-authentications",
                      [](const net::RequestView& req, const net::PathParams&) {
                        return net::HttpResponse::json(200,
                                                       std::string(req.body));
                      });
  bus.attach(server);
  net::Server client("client", env, bus.costs());
  bus.attach(client);
  const net::HttpRequest req = make_sbi_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.request("client", "echo", req));
  }
  state.counters["fastpath_hits"] =
      static_cast<double>(bus.fastpath_hits());
}
BENCHMARK(BM_BusRoundTrip)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------
// Scheduler heap: push N events with colliding timestamps, then drain,
// at 1k (cache-resident) and 100k (past any LLC) pending events.
// ---------------------------------------------------------------------

void BM_SchedulerPushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::VirtualClock clock;
    sim::Scheduler sched(clock);
    sched.reserve(static_cast<std::size_t>(n));
    std::uint64_t lcg = 0x5eedULL;
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      // Monotone and random-past instants, 3:1.
      const sim::Nanos when = (i % 4 != 0)
                                  ? static_cast<sim::Nanos>(i)
                                  : static_cast<sim::Nanos>((lcg >> 33) % 1000);
      sched.at(when, [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerPushPop)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
