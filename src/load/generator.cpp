#include "load/generator.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ran/ue.h"
#include "sim/scheduler.h"

namespace shield5g::load {

namespace {

// Round caps shared with GnbSim::drive — a wedged UE terminates.
constexpr int kMaxRegistrationRounds = 16;
constexpr int kMaxTotalRounds = 24;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Visits every well-known server of the slice (core VNFs and deployed
/// P-AKA modules) in a fixed deterministic order. Shared by the shed
/// classifier below and queue_snapshots().
template <typename Fn>
void for_each_server(slice::Slice& slice, Fn&& fn) {
  fn("amf", &slice.amf().server());
  fn("ausf", &slice.ausf().server());
  fn("udm", &slice.udm().server());
  fn("udr", &slice.udr().server());
  fn("smf", &slice.smf().server());
  fn("nrf", &slice.nrf().server());
  for (const auto& replica : slice.eudm_replicas()) {
    fn(replica->name(), &replica->server());
  }
  if (slice.eausf() != nullptr) fn(slice.eausf()->name(),
                                   &slice.eausf()->server());
  if (slice.eamf() != nullptr) fn(slice.eamf()->name(),
                                  &slice.eamf()->server());
}

class Engine;

/// One UE's registration as a chain of scheduled exchanges. Each step
/// runs one synchronous NAS exchange inside a clock span; the UE then
/// "sleeps" until the exchange's completion instant.
class UeSession {
 public:
  UeSession(Engine& engine, std::uint32_t index, ran::UeDevice ue,
            bool with_pdu)
      : engine_(engine), index_(index), ue_(std::move(ue)),
        with_pdu_(with_pdu) {}

  void start();

 private:
  enum class Phase { kRegistering, kPdu };

  void step();
  void resume();
  void finish();

  Engine& engine_;
  std::uint32_t index_;
  ran::UeDevice ue_;
  bool with_pdu_;
  Phase phase_ = Phase::kRegistering;
  bool attached_ = false;
  bool shed_ = false;
  std::uint64_t ran_ue_id_ = 0;
  std::optional<Bytes> uplink_;
  int rounds_ = 0;
  sim::Nanos arrival_ = 0;
};

class Engine {
 public:
  Engine(slice::Slice& slice, const LoadConfig& config)
      : slice_(slice), config_(config), scheduler_(slice.clock()) {}

  LoadReport run();

  slice::Slice& slice() noexcept { return slice_; }
  sim::VirtualClock& clock() noexcept { return slice_.clock(); }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  ran::Gnb& gnb() noexcept { return slice_.gnb(); }
  LoadReport& report() noexcept { return report_; }
  sim::Nanos run_start() const noexcept { return run_start_; }

  /// Sum of queue rejections across the slice's servers. An exchange
  /// chain runs synchronously inside one scheduled event, so a UE that
  /// snapshots this around its own exchange observes exactly the
  /// rejections that chain caused — the basis of the shed/error split.
  std::uint64_t total_rejected() const noexcept {
    std::uint64_t total = 0;
    for (const net::ServiceQueue* queue : queues_) total += queue->rejected();
    return total;
  }

  void trace(std::uint32_t ue, const char* what) {
    char line[96];
    std::snprintf(line, sizeof(line), "t=%" PRIu64 " ue=%u %s",
                  clock().now() - run_start_, ue, what);
    for (const char* p = line; *p != '\0'; ++p) {
      trace_hash_ = (trace_hash_ ^ static_cast<std::uint8_t>(*p)) * kFnvPrime;
    }
    trace_hash_ *= kFnvPrime;  // line separator
    if (config_.record_trace) report_.trace.emplace_back(line);
  }

 private:
  slice::Slice& slice_;
  const LoadConfig& config_;
  sim::Scheduler scheduler_;
  LoadReport report_;
  std::vector<std::unique_ptr<UeSession>> sessions_;
  std::vector<const net::ServiceQueue*> queues_;
  sim::Nanos run_start_ = 0;
  std::uint64_t trace_hash_ = kFnvOffset;

 public:
  LoadReport take_report() {
    report_.trace_hash = trace_hash_;
    return std::move(report_);
  }

  void build_and_schedule(const std::vector<Arrival>* routed) {
    if (!slice_.created()) {
      throw std::logic_error("LoadGenerator: slice must be created first");
    }
    run_start_ = clock().now();
    queues_.clear();
    for_each_server(slice_, [this](const auto&, net::Server* server) {
      if (server != nullptr) queues_.push_back(&server->queue());
    });
    std::vector<std::pair<std::uint32_t, sim::Nanos>> plan;
    if (routed != nullptr) {
      // Externally routed arrivals (the sharded serving plane): the
      // schedule was drawn once globally; this slice replays its share.
      plan.reserve(routed->size());
      for (const Arrival& a : *routed) {
        plan.emplace_back(a.ue, run_start_ + a.at);
      }
    } else {
      if (config_.ue_count > slice_.subscriber_capacity()) {
        throw std::invalid_argument(
            "LoadGenerator: ue_count exceeds provisioned subscribers");
      }
      Rng arrivals_rng(config_.seed ^ 0xa221ULL);
      const std::vector<sim::Nanos> schedule =
          arrival_schedule(config_.arrivals, config_.ue_count, arrivals_rng);
      plan.reserve(config_.ue_count);
      for (std::uint32_t i = 0; i < config_.ue_count; ++i) {
        plan.emplace_back(i, run_start_ + schedule[i]);
      }
    }
    schedule_plan(plan);
  }

  /// Schedules every planned session.
  void schedule_plan(
      const std::vector<std::pair<std::uint32_t, sim::Nanos>>& plan) {
    sessions_.reserve(sessions_.size() + plan.size());
    // The whole arrival schedule lands in the scheduler up front; size
    // the event storage once.
    scheduler_.reserve(plan.size() + 8);
    for (const auto& p : plan) schedule_session(p.first, p.second);
  }

  void schedule_session(std::uint32_t ue, sim::Nanos at) {
    if (ue >= slice_.subscriber_capacity()) {
      throw std::invalid_argument(
          "LoadGenerator: arrival references an unprovisioned subscriber");
    }
    // Same per-UE device seeding as Slice::register_subscriber, so a
    // 1-UE open-loop run replays the closed-loop byte flow.
    sessions_.push_back(std::make_unique<UeSession>(
        *this, ue,
        ran::UeDevice(slice_.subscriber(ue),
                      slice_.config().seed ^ (0x0eULL + ue),
                      slice_.eph_pool()),
        config_.with_pdu));
    UeSession* session = sessions_.back().get();
    scheduler_.at(at, [session] { session->start(); });
  }

  void drain() { scheduler_.run(); }
};

void UeSession::start() {
  arrival_ = engine_.clock().now();
  engine_.report().arrival_ms.add(sim::to_ms(arrival_ - engine_.run_start()));
  engine_.trace(index_, "arrive");
  step();
}

void UeSession::step() {
  sim::ClockSpan span(engine_.clock());
  if (!attached_) {
    ran_ue_id_ = engine_.gnb().attach_ue();
    uplink_ = ue_.start_registration();
    attached_ = true;
  }
  const std::uint64_t rejected_before = engine_.total_rejected();
  const auto downlink = engine_.gnb().deliver_uplink(ran_ue_id_, *uplink_);
  if (engine_.total_rejected() != rejected_before) shed_ = true;
  std::optional<Bytes> next;
  if (downlink) next = ue_.handle_downlink(*downlink);
  ++rounds_;
  uplink_ = std::move(next);
  const sim::Nanos done_at = span.start() + span.close();
  engine_.scheduler().at(done_at, [this] { resume(); });
}

void UeSession::resume() {
  engine_.trace(index_, phase_ == Phase::kRegistering ? "reg-round"
                                                      : "pdu-round");
  if (phase_ == Phase::kRegistering) {
    if (uplink_ && rounds_ < kMaxRegistrationRounds) {
      step();
      return;
    }
    if (ue_.state() == ran::UeNasState::kRegistered && with_pdu_) {
      phase_ = Phase::kPdu;
      uplink_ = ue_.request_pdu_session();
      step();
      return;
    }
    finish();
    return;
  }
  if (uplink_ && rounds_ < kMaxTotalRounds) {
    step();
    return;
  }
  finish();
}

void UeSession::finish() {
  LoadReport& report = engine_.report();
  ++report.completed;
  const bool registered = ue_.state() == ran::UeNasState::kRegistered ||
                          ue_.state() == ran::UeNasState::kSessionUp;
  const bool session_up = ue_.state() == ran::UeNasState::kSessionUp;
  if (registered) {
    ++report.registered;
    report.setup_ms.add(sim::to_ms(engine_.clock().now() - arrival_));
  } else {
    ++report.failed;
    if (shed_) {
      ++report.failed_shed;
    } else {
      ++report.failed_error;
    }
  }
  if (session_up) ++report.sessions_up;
  engine_.trace(index_,
                registered ? (session_up ? "done session-up"
                                         : "done registered")
                           : (shed_ ? "done failed-shed"
                                    : "done failed-error"));
}

}  // namespace

namespace {

LoadReport run_engine(slice::Slice& slice, const LoadConfig& config,
                      const std::vector<Arrival>* routed) {
  Engine engine(slice, config);
  engine.build_and_schedule(routed);
  engine.drain();
  LoadReport report = engine.take_report();
  report.offered_rate_per_s = config.arrivals.rate_per_s;
  report.makespan = slice.clock().now() - engine.run_start();
  if (report.makespan > 0) {
    report.achieved_rate_per_s =
        static_cast<double>(report.registered) / sim::to_s(report.makespan);
  }
  return report;
}

}  // namespace

LoadReport LoadGenerator::run(slice::Slice& slice, const LoadConfig& config) {
  return run_engine(slice, config, nullptr);
}

LoadReport LoadGenerator::run(slice::Slice& slice, const LoadConfig& config,
                              const std::vector<Arrival>& arrivals) {
  return run_engine(slice, config, &arrivals);
}

std::string LoadReport::summary() const {
  char buf[256];
  // An empty run (no UE registered) has no setup distribution to quote.
  const double p50 = setup_ms.empty() ? 0.0 : setup_ms.median();
  const double p95 = setup_ms.empty() ? 0.0 : setup_ms.percentile(95.0);
  std::snprintf(buf, sizeof(buf),
                "%u/%u registered (%u sessions, %u failed: %u shed, %u error), "
                "offered %.0f/s, achieved %.0f/s, setup p50 %.2f ms "
                "p95 %.2f ms",
                registered, completed, sessions_up, failed, failed_shed,
                failed_error, offered_rate_per_s, achieved_rate_per_s, p50,
                p95);
  return buf;
}

std::vector<QueueSnapshot> queue_snapshots(slice::Slice& slice) {
  std::vector<QueueSnapshot> snapshots;
  auto add = [&snapshots](std::string name, net::Server* server) {
    if (server == nullptr) return;
    const net::ServiceQueue& queue = server->queue();
    QueueSnapshot snap;
    snap.server = name;
    snap.workers = queue.config().workers;
    snap.admitted = queue.admitted();
    snap.queued = queue.queued();
    snap.rejected = queue.rejected();
    if (!queue.wait_us().empty()) {
      snap.wait_p50_us = queue.wait_us().median();
      snap.wait_max_us = queue.wait_us().max();
    }
    snap.total_wait = queue.total_wait();
    snapshots.push_back(std::move(snap));
  };
  for_each_server(slice, add);
  return snapshots;
}

}  // namespace shield5g::load
