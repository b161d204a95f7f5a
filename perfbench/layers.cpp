// Traced run: per-layer metrics.
//
// For every mode the workload runs one untraced case and the same case
// traced (hot-stage probes on, spans recorded, warnings captured), so
// the difference is the tracing overhead. Thread-local work counts
// (crypto ops, enclave transitions, allocations, wire-pool bytes) come
// from a single slice run on this thread: the case itself on
// steady/overload, one slot-sized slice with the plane's per-slot
// configuration on serving. A closed-loop single-UE replay times the UE
// side and each core NAS round, and isolated probes time each layer's
// public entry point at the sizes and depths the workload recorded.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "common/buffer_pool.h"
#include "common/hot_stage.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "crypto/op_count.h"
#include "crypto/x25519.h"
#include "json/json.h"
#include "libos/runtime.h"
#include "net/http.h"
#include "net/tls.h"
#include "nf/subscriber_store.h"
#include "ran/ue.h"
#include "sgx/enclave.h"
#include "sim/scheduler.h"
#include "trace.h"

namespace perfbench {

namespace load = shield5g::load;
namespace slice = shield5g::slice;
namespace crypto = shield5g::crypto;
namespace net = shield5g::net;
using shield5g::Bytes;
using shield5g::ByteView;
using shield5g::Rng;

namespace {

constexpr const char* kStageMetric[] = {"crypto.self_us", "codec.self_us",
                                        "net.bus.self_us", "sim.sched.self_us"};
constexpr std::uint32_t kReplayUes = 64;

using Counters = std::map<std::string, std::uint64_t>;

std::uint64_t get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Results of isolated probes land here so the compiler keeps the work.
volatile std::size_t g_sink = 0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Enclave transitions summed over the three P-AKA enclaves (zero
/// outside SGX mode).
shield5g::sgx::TransitionCounters enclave_counters(slice::Slice& s) {
  shield5g::sgx::TransitionCounters sum;
  const auto add = [&sum](shield5g::paka::PakaService* svc) {
    if (svc == nullptr || svc->runtime() == nullptr) return;
    const auto& c = svc->runtime()->enclave().counters();
    sum.eenter += c.eenter;
    sum.eexit += c.eexit;
    sum.aex += c.aex;
    sum.ocalls += c.ocalls;
  };
  add(s.eudm());
  add(s.eausf());
  add(s.eamf());
  return sum;
}

}  // namespace

struct Probe {
  crypto::OpCounts ops_before, ops;
  std::uint64_t allocs_before = 0, allocs = 0;
  std::array<std::uint64_t, shield5g::kHotStageCount> stage_before{}, stage{};
  shield5g::sgx::TransitionCounters sgx_before, sgx;
  Counters counters;
};

void probe_begin(Probe& p, slice::Slice& s) {
  shield5g::BufferPool::publish_thread_stats();
  shield5g::counters_reset();
  p.sgx_before = enclave_counters(s);
  p.stage_before = shield5g::hot_stage::thread_snapshot();
  p.ops_before = crypto::op_counts();
  p.allocs_before = alloc_count();
}

void probe_end(Probe& p, slice::Slice& s) {
  p.allocs = alloc_count() - p.allocs_before;
  p.ops = crypto::op_counts() - p.ops_before;
  const auto st = shield5g::hot_stage::thread_snapshot();
  for (int i = 0; i < shield5g::kHotStageCount; ++i) {
    p.stage[i] = st[i] - p.stage_before[i];
  }
  p.sgx = enclave_counters(s) - p.sgx_before;
  shield5g::BufferPool::publish_thread_stats();
  p.counters = shield5g::counters_snapshot();
}

namespace {

/// Redirects fd 2 into a file for the traced window and counts the
/// AMF's integrity warnings afterwards.
class StderrCapture {
 public:
  explicit StderrCapture(std::string path) : path_(std::move(path)) {
    std::fflush(stderr);
    saved_ = dup(2);
    const int fd = open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd >= 0) {
      dup2(fd, 2);
      close(fd);
    }
  }
  ~StderrCapture() { restore(); }
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  /// Restores stderr and returns how many captured lines contain
  /// `needle`.
  std::uint64_t finish(const std::string& needle) {
    restore();
    std::ifstream in(path_);
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(in, line)) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

 private:
  void restore() {
    if (saved_ < 0) return;
    std::fflush(stderr);
    dup2(saved_, 2);
    close(saved_);
    saved_ = -1;
  }
  std::string path_;
  int saved_ = -1;
};

/// Per-mode results of the traced run.
struct ModeLayers {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t registered = 0;
  double create_ms = 0.0;
  double stage_us[4] = {};
  double unattributed_us = 0.0;
  // Single-slice (benchmark thread) counts.
  std::uint64_t slice_registered = 0;
  std::uint64_t slice_attempted = 0;
  Probe probe;
  std::uint64_t admitted = 0;  // every queue, NGAP edge included
  std::uint64_t rejected = 0;
  std::uint64_t sbi = 0;  // admitted at SBI servers (all but the AMF)
  std::uint64_t fastpath = 0;
  // Serving plane; fixed at one always-busy worker on steady/overload.
  double busy_share = 1.0;
  double imbalance = 1.0;
  std::uint64_t backpressure = 0;
};

/// Queue totals of a single-slice case. The AMF's queue is the NGAP
/// edge; every other server's admissions are SBI requests.
void count_queues(const CaseRun& run, ModeLayers& ml) {
  for (const load::QueueSnapshot& q : run.queues) {
    ml.admitted += q.admitted;
    ml.rejected += q.rejected;
    if (q.server != "amf") ml.sbi += q.admitted;
  }
  ml.fastpath = run.fastpath_hits;
}

// ---- Closed-loop single-UE replay ------------------------------------

enum Round { kRegReq, kAuthResp, kSmcComplete, kPdu, kRoundCount };
constexpr const char* kRoundMetric[] = {"core.reg_req_us", "core.auth_resp_us",
                                        "core.smc_complete_us", "core.pdu_us"};

Round classify(shield5g::ran::UeNasState state) {
  using shield5g::ran::UeNasState;
  switch (state) {
    case UeNasState::kWaitAuth: return kRegReq;
    case UeNasState::kWaitSecurityMode: return kAuthResp;
    case UeNasState::kWaitAccept:
    case UeNasState::kRegistered: return kSmcComplete;
    default: return kPdu;
  }
}

struct Replay {
  double ue_us = 0.0;
  double round_us[kRoundCount] = {};
};

/// Drives kReplayUes registrations (+ PDU session) one at a time
/// through Gnb::attach_ue/deliver_uplink and UeDevice, timing the UE
/// side and the core side of every NAS round. Medians over UEs.
Replay replay(const WorkloadSpec& spec, IsolationMode mode, std::uint64_t seed,
              std::vector<std::string>& errors) {
  slice::Slice s(slice_config(spec, mode, seed, kReplayUes));
  s.create();
  std::vector<double> ue_us;
  std::vector<double> round_us[kRoundCount];
  for (std::uint32_t i = 0; i < kReplayUes; ++i) {
    const std::string id = std::string(slice::isolation_mode_name(mode)) +
                           "/ue" + std::to_string(i);
    trace::Scoped ue_span("replay.ue", id);
    shield5g::ran::UeDevice ue(s.subscriber(i), s.config().seed ^ (0x0eULL + i),
                               s.eph_pool());
    const std::uint64_t ran_id = s.gnb().attach_ue();
    double ue_s = 0.0;
    double core_s[kRoundCount] = {};
    std::optional<Bytes> uplink;
    {
      trace::Scoped span("ran.ue", id);
      const double t0 = now_s();
      uplink = ue.start_registration();
      ue_s += now_s() - t0;
    }
    // Registration rounds, then (once registered) the PDU session
    // rounds — the same two phases as GnbSim::drive.
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) {
        if (ue.state() != shield5g::ran::UeNasState::kRegistered) break;
        trace::Scoped span("ran.ue", id);
        const double t0 = now_s();
        uplink = ue.request_pdu_session();
        ue_s += now_s() - t0;
      }
      for (int rounds = 0; uplink && rounds < 16; ++rounds) {
        const Round r = classify(ue.state());
        std::optional<Bytes> downlink;
        {
          trace::Scoped span(kRoundMetric[r], id);
          const double t0 = now_s();
          downlink = s.gnb().deliver_uplink(ran_id, *uplink);
          core_s[r] += now_s() - t0;
        }
        if (!downlink) break;
        trace::Scoped span("ran.ue", id);
        const double t0 = now_s();
        uplink = ue.handle_downlink(*downlink);
        ue_s += now_s() - t0;
      }
    }
    if (ue.state() != shield5g::ran::UeNasState::kSessionUp) {
      errors.push_back(id + ": closed-loop replay did not reach session-up");
      continue;
    }
    ue_us.push_back(1e6 * ue_s);
    for (int r = 0; r < kRoundCount; ++r) round_us[r].push_back(1e6 * core_s[r]);
  }
  Replay out;
  out.ue_us = median(ue_us);
  for (int r = 0; r < kRoundCount; ++r) out.round_us[r] = median(round_us[r]);
  return out;
}

// ---- Isolated unit costs ---------------------------------------------

/// Median per-operation nanoseconds of `op` over `batches` batches of
/// `per_batch` calls.
template <typename Fn>
double time_ns(int batches, int per_batch, Fn&& op) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < per_batch; ++i) op();
    per_op.push_back(1e9 * (now_s() - t0) / per_batch);
  }
  return median(per_op);
}

std::string hex_of(Rng& rng, std::size_t bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : rng.bytes(bytes)) {
    out += kHex[b >> 4];
    out += kHex[b & 15];
  }
  return out;
}

/// An AKA-shaped SBI JSON body of about `target` bytes.
std::string sbi_body(Rng& rng, std::size_t target) {
  shield5g::json::Object av;
  av["rand"] = hex_of(rng, 16);
  av["autn"] = hex_of(rng, 16);
  av["hxresStar"] = hex_of(rng, 16);
  shield5g::json::Object root;
  root["authType"] = "5G_AKA";
  root["5gAuthData"] = shield5g::json::Value(std::move(av));
  root["servingNetworkName"] = "5G:mnc001.mcc001.3gppnetwork.org";
  root["supiOrSuci"] = "suci-0-001-01-0000-1-1-" + hex_of(rng, 16);
  const std::size_t base = shield5g::json::Value(root).dump().size();
  if (target > base + 16) {
    root["kausf"] = hex_of(rng, (target - base - 12) / 2);
  }
  return shield5g::json::Value(std::move(root)).dump();
}

struct UnitCosts {
  double x25519_us = 0, json_parse_ns = 0, json_dump_ns = 0,
         http_roundtrip_ns = 0, tls_record_ns = 0, hs_full_us = 0,
         hs_resumed_us = 0, pushpop_ns = 0, counter_ns_1t = 0,
         counter_ns_2t = 0, store_provision_us = 0, store_bytes_per_sub = 0,
         store_lookup_ns = 0;
};

UnitCosts unit_costs(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t body_bytes, std::size_t peak_depth,
                     std::uint32_t store_rows,
                     std::vector<std::string>& errors) {
  UnitCosts u;
  Rng rng(seed ^ 0x9e0beULL);
  {
    trace::Scoped span("probe.x25519", spec.name);
    const shield5g::Secret<32> scalar(ByteView(rng.bytes(32)));
    crypto::X25519Key u_point = crypto::x25519_public(
        shield5g::Secret<32>(ByteView(rng.bytes(32))));
    u.x25519_us = 1e-3 * time_ns(7, 40, [&] {
      u_point = crypto::x25519(scalar, ByteView(u_point));
    });
  }
  const std::string body = sbi_body(rng, body_bytes);
  {
    trace::Scoped span("probe.json", spec.name);
    const shield5g::json::Value doc = shield5g::json::parse(body);
    u.json_parse_ns = time_ns(7, 2000, [&] {
      g_sink = g_sink + shield5g::json::parse(body).as_object().size();
    });
    u.json_dump_ns = time_ns(7, 2000, [&] { g_sink = g_sink + doc.dump().size(); });
  }
  net::HttpRequest req;
  req.method = net::Method::kPost;
  req.path = "/nausf-auth/v1/ue-authentications";
  req.headers.set("content-type", "application/json");
  req.body = body;
  const Bytes wire = req.serialize();
  {
    trace::Scoped span("probe.http", spec.name);
    u.http_roundtrip_ns = time_ns(7, 2000, [&] {
      const Bytes w = req.serialize();
      const auto view = net::RequestView::parse(ByteView(w));
      g_sink = g_sink + (view ? view->body.size() : 0);
    });
  }
  const net::TlsIdentity server = net::TlsIdentity::generate(rng);
  {
    trace::Scoped span("probe.tls_record", spec.name);
    Bytes hello, server_hello;
    net::TlsSession client =
        net::TlsSession::client_connect(ByteView(server.key.public_key), rng,
                                        hello);
    std::optional<net::TlsSession> srv = net::TlsSession::server_accept(
        server.key, ByteView(hello), server_hello);
    u.tls_record_ns = time_ns(7, 400, [&] {
      const Bytes rec = client.protect(ByteView(wire));
      const auto plain = srv->unprotect(ByteView(rec));
      g_sink = g_sink + (plain ? plain->size() : 0);
    });
  }
  {
    trace::Scoped span("probe.tls_handshake", spec.name);
    const shield5g::Secret<32> master(ByteView(rng.bytes(32)));
    net::TicketIssuer issuer(master, net::TicketIssuer::kDefaultLifetimeNs);
    const ByteView pub(server.key.public_key);
    std::uint64_t now_ns = 1;
    Bytes hello, server_hello;
    // Full handshakes of the family the workload uses.
    u.hs_full_us = 1e-3 * time_ns(7, 20, [&] {
      if (spec.serving) {
        net::TlsSession::client_connect(pub, rng, hello);
        net::TlsSession::server_accept(server.key, ByteView(hello),
                                       server_hello);
      } else {
        net::TlsSession::client_connect_resumable(pub, rng, hello);
        net::TlsSession::server_accept_resumable(
            server.key, ByteView(hello), issuer, now_ns, rng, server_hello);
      }
    });
    // One full resumable handshake starts the ticket chain.
    const net::TlsClientHandshake first =
        net::TlsSession::client_connect_resumable(pub, rng, hello);
    net::TlsSession::server_accept_resumable(server.key, ByteView(hello),
                                             issuer, now_ns, rng,
                                             server_hello);
    std::optional<Bytes> ticket =
        net::TlsSession::hello_ticket(ByteView(server_hello));
    shield5g::Secret<32> secret = first.resumption_secret;
    bool resumed_ok = ticket.has_value();
    u.hs_resumed_us = 1e-3 * time_ns(7, 200, [&] {
      if (!ticket) return;
      const net::TlsClientHandshake hs = net::TlsSession::client_resume(
          secret, ByteView(*ticket), rng, hello);
      const net::TlsServerAccept acc = net::TlsSession::server_accept_resumable(
          server.key, ByteView(hello), issuer, ++now_ns, rng, server_hello);
      resumed_ok = resumed_ok && acc.resumed;
      ticket = net::TlsSession::hello_ticket(ByteView(server_hello));
      secret = hs.resumption_secret;
    });
    if (!resumed_ok) errors.push_back("probe: a TLS resumption was rejected");
  }
  {
    trace::Scoped span("probe.scheduler", spec.name);
    const std::size_t depth = std::max<std::size_t>(peak_depth, 1);
    std::vector<double> per_event;
    for (int b = 0; b < 7; ++b) {
      shield5g::sim::VirtualClock clock;
      shield5g::sim::Scheduler sched(clock);
      std::uint64_t fired = 0;
      const double t0 = now_s();
      for (std::size_t i = 0; i < depth; ++i) {
        sched.at(static_cast<shield5g::sim::Nanos>(rng.uniform(1'000'000'000)),
                 [&fired] { ++fired; });
      }
      sched.run();
      per_event.push_back(1e9 * (now_s() - t0) / static_cast<double>(depth));
    }
    u.pushpop_ns = median(per_event);
  }
  {
    trace::Scoped span("probe.counter_add", spec.name);
    constexpr int kOps = 200'000;
    u.counter_ns_1t = time_ns(5, kOps / 5,
                              [] { shield5g::counter_add("bench.probe"); });
    std::vector<double> per_op;
    for (int b = 0; b < 5; ++b) {
      const double t0 = now_s();
      std::thread other([] {
        for (int i = 0; i < kOps / 5; ++i) shield5g::counter_add("bench.probe");
      });
      for (int i = 0; i < kOps / 5; ++i) shield5g::counter_add("bench.probe");
      other.join();
      per_op.push_back(1e9 * (now_s() - t0) / (kOps / 5));
    }
    u.counter_ns_2t = median(per_op);
  }
  {
    trace::Scoped span("probe.store", spec.name);
    shield5g::nf::SubscriberStore store;
    store.reserve(store_rows);
    const shield5g::nf::Plmn plmn;
    shield5g::nf::SubscriberRecord rec;
    rec.k = shield5g::SecretBytes(rng.bytes(16));
    rec.opc = shield5g::SecretBytes(rng.bytes(16));
    char msin[16];
    const double t0 = now_s();
    for (std::uint32_t i = 0; i < store_rows; ++i) {
      std::snprintf(msin, sizeof(msin), "%010u", 100000000u + i);
      rec.supi = shield5g::nf::Supi::from_parts(plmn, msin);
      rec.sqn = i;
      store.provision(rec);
    }
    u.store_provision_us = 1e6 * (now_s() - t0) / store_rows;
    u.store_bytes_per_sub =
        static_cast<double>(store.bytes_reserved()) / store_rows;
    std::vector<std::string> keys;
    for (int i = 0; i < 4096; ++i) {
      std::snprintf(msin, sizeof(msin), "%010u",
                    100000000u + static_cast<std::uint32_t>(
                                     rng.uniform(store_rows)));
      keys.push_back(shield5g::nf::Supi::from_parts(plmn, msin).value);
    }
    std::size_t k = 0, hits = 0;
    u.store_lookup_ns = time_ns(7, 20'000, [&] {
      hits += store.row(keys[k++ & 4095]) != shield5g::nf::SubscriberStore::kNoRow;
    });
    if (hits == 0) errors.push_back("probe: no store lookup hit");
  }
  return u;
}

/// Sum of the counters that production code bumps by one per event.
std::uint64_t unit_counter_calls(const Counters& c) {
  std::uint64_t n = 0;
  for (const auto& [name, value] : c) {
    if (name.rfind("tls.resume.", 0) == 0 || name.rfind("bus.fastpath.", 0) == 0 ||
        name == "x25519.pool.hit" || name == "queue.shed" ||
        name.rfind("secret.declassify.", 0) == 0) {
      n += value;
    }
  }
  return n;
}

/// One case untraced: warnings below error level and spans off.
CaseRun untraced_case(const WorkloadSpec& spec, IsolationMode mode,
                      std::uint64_t seed) {
  const shield5g::LogLevel saved = shield5g::log_level();
  shield5g::set_log_level(shield5g::LogLevel::kError);
  trace::set_enabled(false);
  CaseRun run = spec.serving
                    ? run_serving_case(spec, mode, seed, spec.ue_count)
                    : run_slice_case(spec, mode, seed, spec.ue_count);
  trace::set_enabled(true);
  shield5g::set_log_level(saved);
  return run;
}

/// The same case traced: hot-stage probes and spans on, warnings written
/// to `log`. Adds the AMF's integrity warnings to `warnings`.
CaseRun traced_case(const WorkloadSpec& spec, IsolationMode mode,
                    std::uint64_t seed, const std::string& log, Probe* probe,
                    std::uint64_t& warnings) {
  StderrCapture capture(log);
  shield5g::hot_stage::set_enabled(true);
  CaseRun run = spec.serving
                    ? run_serving_case(spec, mode, seed, spec.ue_count)
                    : run_slice_case(spec, mode, seed, spec.ue_count, probe);
  shield5g::hot_stage::set_enabled(false);
  warnings += capture.finish("NAS integrity failure");
  return run;
}

}  // namespace

Outcome run_layers(const WorkloadSpec& spec, const Options& opt) {
  Outcome out;
  const double deadline = now_s() + opt.seconds;
  trace::set_enabled(true);
  set_up(spec, opt.seed);

  ModeLayers modes[kModeCount];
  std::uint64_t integrity_warn = 0;
  // Single-slice counts on serving: one slot's share of the plane.
  WorkloadSpec slot_spec = spec;
  if (spec.serving) {
    slot_spec.rate_per_s = spec.rate_per_s / load::kServingSlots;
    slot_spec.ue_count = spec.ue_count / load::kServingSlots;
  }

  for (int m = 0; m < kModeCount; ++m) {
    const IsolationMode mode = kModes[m];
    const char* name = slice::isolation_mode_name(mode);
    ModeLayers& ml = modes[m];

    // Untraced, then traced: same inputs, so the wall difference is the
    // cost of probes, spans and warning output.
    const CaseRun plain = untraced_case(spec, mode, opt.seed);
    ml.untraced_s = plain.run_s;
    Probe probe;
    const CaseRun traced = traced_case(
        spec, mode, opt.seed,
        opt.out_dir + "/log_" + spec.name + "_" + name + ".txt", &probe,
        integrity_warn);
    check_case(spec, traced, out.errors);
    if (traced.digest != plain.digest) {
      out.errors.push_back(std::string(name) +
                           ": traced and untraced digests differ");
    }
    out.digests.push_back(std::string(name) + " " + hex64(traced.digest));
    ml.traced_s = traced.run_s;
    ml.attempted = traced.attempted;
    ml.registered = traced.report.registered;
    out.attempted += traced.attempted;
    out.failed += traced.report.failed_error;

    // Hot-stage buckets plus the unattributed remainder: exactly the
    // traced serve wall time (per slot run on serving).
    double wall_ns = 0.0;
    std::uint64_t stage_ns[4] = {};
    if (spec.serving) {
      std::vector<double> busy(kServeWorkers, 0.0);
      for (std::size_t slot = 0; slot < traced.plane.slots.size(); ++slot) {
        const load::SweepResult& r = traced.plane.slots[slot];
        wall_ns += 1e6 * r.run_wall_ms;
        busy[slot % traced.plane.shards] += r.run_wall_ms;
        for (int i = 0; i < 4; ++i) stage_ns[i] += r.stage_ns[i];
      }
      const double plane_ms = 1e3 * traced.run_s;
      double busy_sum = 0.0, busy_max = 0.0;
      for (const double b : busy) {
        busy_sum += b;
        busy_max = std::max(busy_max, b);
      }
      ml.busy_share = ratio(busy_sum, plane_ms * traced.plane.shards);
      ml.imbalance = ratio(busy_max, busy_sum / traced.plane.shards);
      ml.backpressure = traced.plane.backpressure;

      // Thread-local counts: one slot-sized slice on this thread.
      const CaseRun one = run_slice_case(slot_spec, mode, opt.seed,
                                         slot_spec.ue_count, &probe);
      check_case(slot_spec, one, out.errors);
      ml.create_ms = 1e3 * one.create_s;
      ml.slice_registered = one.report.registered;
      ml.slice_attempted = one.attempted;
      count_queues(one, ml);
    } else {
      wall_ns = 1e9 * traced.run_s;
      for (int i = 0; i < 4; ++i) stage_ns[i] = probe.stage[i];
      ml.create_ms = 1e3 * plain.create_s;
      ml.slice_registered = traced.report.registered;
      ml.slice_attempted = traced.attempted;
      count_queues(traced, ml);
    }
    double attributed = 0.0;
    for (int i = 0; i < 4; ++i) {
      ml.stage_us[i] = 1e-3 * ratio(stage_ns[i], ml.registered);
      attributed += static_cast<double>(stage_ns[i]);
    }
    ml.unattributed_us = 1e-3 * ratio(wall_ns - attributed, ml.registered);
    ml.probe = probe;
  }

  // ---- Re-time the untraced/traced pair until --seconds have passed
  // and keep the medians, as the untraced run does.
  std::vector<double> untraced_s[kModeCount], traced_s[kModeCount];
  for (int m = 0; m < kModeCount; ++m) {
    untraced_s[m].push_back(modes[m].untraced_s);
    traced_s[m].push_back(modes[m].traced_s);
  }
  const std::string retime_log = opt.out_dir + "/log_" + spec.name + "_retime.txt";
  while (now_s() < deadline) {
    for (int m = 0; m < kModeCount; ++m) {
      std::uint64_t warnings = 0;
      untraced_s[m].push_back(untraced_case(spec, kModes[m], opt.seed).run_s);
      traced_s[m].push_back(
          traced_case(spec, kModes[m], opt.seed, retime_log, nullptr, warnings)
              .run_s);
    }
  }
  const std::size_t pairs = untraced_s[0].size();
  for (int m = 0; m < kModeCount; ++m) {
    modes[m].untraced_s = median(untraced_s[m]);
    modes[m].traced_s = median(traced_s[m]);
  }

  // ---- Per-mode metrics ----
  for (int m = 0; m < kModeCount; ++m) {
    const ModeLayers& ml = modes[m];
    const std::string sfx =
        std::string(".") + slice::isolation_mode_name(kModes[m]);
    for (int i = 0; i < 4; ++i) {
      out.add(kStageMetric[i] + sfx, ml.stage_us[i], "us");
    }
    out.add("unattributed_us" + sfx, ml.unattributed_us, "us");
    const double reg = static_cast<double>(ml.slice_registered);
    out.add("crypto.aes_blocks" + sfx, ratio(ml.probe.ops.aes_blocks, reg),
            "count");
    out.add("crypto.sha_blocks" + sfx, ratio(ml.probe.ops.sha256_blocks, reg),
            "count");
    out.add("crypto.x25519_mults" + sfx, ratio(ml.probe.ops.x25519_ops, reg),
            "count");
    out.add("net.fastpath_share" + sfx, ratio(ml.fastpath, ml.sbi),
            "ratio");
    out.add("common.allocs" + sfx, ratio(ml.probe.allocs, reg), "count");
    out.add("slice.create_ms" + sfx, ml.create_ms, "ms");
    const Replay r = replay(spec, kModes[m], opt.seed, out.errors);
    out.add("ran.ue_us" + sfx, r.ue_us, "us", kReplayUes);
    for (int i = 0; i < kRoundCount; ++i) {
      out.add(kRoundMetric[i] + sfx, r.round_us[i], "us", kReplayUes);
    }
  }

  // ---- Aggregates over modes (single-slice counters) ----
  double reg = 0, attempted = 0, admitted = 0, rejected = 0, sbi = 0,
         untraced = 0, traced = 0, all_attempted = 0, all_registered = 0;
  double wire_bytes = 0, pool_hit = 0, pool_miss = 0, resume_hit = 0,
         handshakes = 0, events = 0, counter_calls = 0;
  std::uint64_t peak = 0;
  for (const ModeLayers& ml : modes) {
    const Counters& c = ml.probe.counters;
    reg += ml.slice_registered;
    attempted += ml.slice_attempted;
    admitted += ml.admitted;
    rejected += ml.rejected;
    sbi += static_cast<double>(ml.sbi);
    untraced += ml.untraced_s;
    traced += ml.traced_s;
    all_attempted += ml.attempted;
    all_registered += ml.registered;
    wire_bytes += get(c, "wire.pool.bytes");
    pool_hit += get(c, "wire.pool.hit");
    pool_miss += get(c, "wire.pool.miss");
    const double hs = get(c, "tls.resume.hit") +
                      get(c, "tls.resume.miss") +
                      get(c, "tls.resume.reject");
    resume_hit += get(c, "tls.resume.hit");
    // The program counts resumable-family handshakes only; the legacy
    // handshakes of serving have no counter, so they read 0 here.
    handshakes += hs;
    events += get(c, "scheduler.events.popped");
    peak = std::max(peak, get(c, "scheduler.events.peak"));
    counter_calls += unit_counter_calls(c);
  }
  const ModeLayers& sgx_mode = modes[kModeCount - 1];
  const double sgx_reg = static_cast<double>(sgx_mode.slice_registered);

  out.add("net.sbi_requests", ratio(sbi, reg), "count");
  out.add("net.wire_bytes", ratio(wire_bytes, reg), "B");
  out.add("net.pool_hit_rate", ratio(pool_hit, pool_hit + pool_miss), "ratio");
  out.add("net.tls.resume_rate", ratio(resume_hit, handshakes), "ratio");
  out.add("net.tls.handshakes", ratio(handshakes, reg), "count");
  out.add("net.queue.rejected_share", ratio(rejected, admitted + rejected),
          "ratio");
  out.add("net.queue.admitted", ratio(admitted, attempted), "count");
  out.add("load.attempt_us", 1e6 * ratio(untraced, all_attempted), "us",
          pairs);
  out.add("sim.sched.events", ratio(events, attempted), "count");
  out.add("sim.sched.peak", static_cast<double>(peak), "count");
  out.add("sgx.eenter", ratio(sgx_mode.probe.sgx.eenter, sgx_reg), "count");
  out.add("sgx.eexit", ratio(sgx_mode.probe.sgx.eexit, sgx_reg), "count");
  out.add("sgx.aex", ratio(sgx_mode.probe.sgx.aex, sgx_reg), "count");
  out.add("sgx.ocalls", ratio(sgx_mode.probe.sgx.ocalls, sgx_reg), "count");
  out.add("nf.amf.integrity_warn", static_cast<double>(integrity_warn),
          "count");
  out.add("common.counter_calls", ratio(counter_calls, reg), "count");
  out.add("fail_share", ratio(all_attempted - all_registered, all_attempted),
          "ratio");
  out.add("trace.overhead_pct", 100.0 * ratio(traced - untraced, untraced),
          "%", pairs);
  double busy = 0, imbalance = 0, backpressure = 0;
  for (const ModeLayers& ml : modes) {
    busy += ml.busy_share / kModeCount;
    imbalance += ml.imbalance / kModeCount;
    backpressure += static_cast<double>(ml.backpressure);
  }
  out.add("load.serve.busy_share", busy, "ratio");
  out.add("load.serve.imbalance", imbalance, "ratio");
  out.add("load.serve.backpressure", backpressure, "count");

  // ---- Isolated unit costs at the workload's recorded sizes ----
  // Body size: mean pooled wire buffer of the workload (container/SGX
  // carry real records; monolithic bypasses them).
  const double mean_buffer = ratio(wire_bytes, pool_hit + pool_miss);
  const std::size_t body_bytes =
      static_cast<std::size_t>(std::max(64.0, mean_buffer));
  const std::uint32_t store_rows =
      spec.serving ? kProvisionCount : spec.ue_count;
  const UnitCosts u =
      unit_costs(spec, opt.seed, body_bytes, peak, store_rows, out.errors);
  out.add("crypto.x25519_us", u.x25519_us, "us");
  out.add("json.body_bytes", static_cast<double>(body_bytes), "B");
  out.add("json.parse_ns", u.json_parse_ns, "ns");
  out.add("json.dump_ns", u.json_dump_ns, "ns");
  out.add("http.roundtrip_ns", u.http_roundtrip_ns, "ns");
  out.add("net.tls.record_ns", u.tls_record_ns, "ns");
  out.add("net.tls.handshake_full_us", u.hs_full_us, "us");
  out.add("net.tls.handshake_resumed_us", u.hs_resumed_us, "us");
  out.add("sim.sched.pushpop_ns", u.pushpop_ns, "ns");
  out.add("nf.store.provision_us", u.store_provision_us, "us");
  out.add("nf.store.bytes_per_sub", u.store_bytes_per_sub, "B");
  out.add("nf.store.lookup_ns", u.store_lookup_ns, "ns");
  out.add("common.counter_add_ns.1t", u.counter_ns_1t, "ns");
  out.add("common.counter_add_ns.2t", u.counter_ns_2t, "ns");

  trace::set_enabled(false);
  const std::string span_file = opt.out_dir + "/spans_" + spec.name + "_" +
                                std::to_string(opt.seed) + ".json";
  if (!trace::write(span_file)) {
    out.errors.push_back("cannot write " + span_file);
  } else {
    std::printf("  spans: %zu written to %s\n", trace::spans().size(),
                span_file.c_str());
  }
  return out;
}

}  // namespace perfbench
