// LOAD CURVE — latency vs offered load per isolation mode (beyond the
// paper: its experiments register one UE at a time, so enclave thread
// limits and queueing never show; this bench drives the concurrent
// engine open-loop and locates the saturation knee).
//
// Sweeps the offered registration rate for the container deployment and
// for SGX at two TCS budgets, running a seed-sweep Monte Carlo per
// point. All (mode x rate x seed) cases are one flat shard sweep
// (load/sweep.h): one host worker per CPU in the affinity mask (narrow
// it with taskset) executes the independent sims in parallel, and by
// the determinism contract the numbers are bit-identical at any worker
// count. Expected shape: all modes flat near the unloaded setup latency
// at low rate; the SGX module (1 enclave worker at the paper's
// max_threads=4) saturates earliest — its achieved rate plateaus and
// setup latency grows with the backlog; raising the TCS budget moves
// the knee right.
//
// Past saturation the AMF ingress sheds: the NGAP-edge drop count and
// the per-point shed probability are reported on the curve and in the
// emitted JSON (the drop itself is still silent — no retransmission
// model yet, see ROADMAP).
//
//   $ ./load_curve [ues_per_run] [out.json]
//
// Writes BENCH_load_curve.json (schema shield5g.bench.load_curve.v1);
// the exit status is non-zero only on a write failure.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "json/json.h"
#include "load/sweep.h"
#include "sim/shards.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

constexpr const char* kSchemaId = "shield5g.bench.load_curve.v1";
constexpr std::size_t kSeeds = 4;

struct ModeConfig {
  const char* label;
  slice::IsolationMode mode;
  std::uint32_t sgx_threads;  // PakaOptions.max_threads (SGX rows)
};

struct Point {
  double offered_per_s = 0;
  double setup_p50_ms = 0;
  double setup_p95_ms = 0;
  double achieved_per_s = 0;
  double queue_share = 0;  // total queue wait / total setup time
  std::uint64_t shed = 0;
  double shed_probability = 0;  // shed / (shed + admitted), all queues
};

load::SweepCase make_case(const ModeConfig& mode, double rate,
                          std::uint32_t ues, std::uint64_t seed) {
  load::SweepCase c;
  char label[96];
  std::snprintf(label, sizeof(label), "%s rate=%.0f seed=%llu", mode.label,
                rate, static_cast<unsigned long long>(seed));
  c.label = label;
  c.slice.mode = mode.mode;
  c.slice.subscriber_count = ues;
  c.slice.seed = 0x51C3ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
  c.slice.paka.max_threads = mode.sgx_threads;
  c.load.ue_count = ues;
  c.load.arrivals.kind = load::ArrivalKind::kPoisson;
  c.load.arrivals.rate_per_s = rate;
  c.load.seed = 0x10adULL + seed;
  return c;
}

Point aggregate_point(double rate,
                      const std::vector<const load::SweepResult*>& seeds) {
  Point point;
  point.offered_per_s = rate;
  std::uint64_t admitted = 0;
  for (const load::SweepResult* r : seeds) {
    const load::LoadReport& report = r->report;
    point.setup_p50_ms += report.setup_ms.median() / kSeeds;
    point.setup_p95_ms += report.setup_ms.percentile(95.0) / kSeeds;
    point.achieved_per_s += report.achieved_rate_per_s / kSeeds;
    point.shed += r->shed;
    sim::Nanos queue_total = 0;
    for (const load::QueueSnapshot& q : r->queues) {
      queue_total += q.total_wait;
      admitted += q.admitted;
    }
    double setup_total_ms = 0;
    for (double v : report.setup_ms.values()) setup_total_ms += v;
    if (setup_total_ms > 0) {
      point.queue_share += sim::to_ms(queue_total) / setup_total_ms / kSeeds;
    }
  }
  if (point.shed + admitted > 0) {
    point.shed_probability = static_cast<double>(point.shed) /
                             static_cast<double>(point.shed + admitted);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t ues = static_cast<std::uint32_t>(
      bench::iterations(argc, argv, 200,
                        bench::Args::kCountAndOutput));
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_load_curve.json";
  const unsigned workers = sim::shard_workers();
  bench::heading("LOAD CURVE: latency vs offered registration load");
  std::printf("  %u UEs per run, Poisson arrivals, %zu-seed Monte Carlo per "
              "point, %u shard worker%s\n",
              ues, kSeeds, workers, workers == 1 ? "" : "s");

  const std::vector<double> rates = {50, 100, 200, 400, 800, 1600, 3200};
  const ModeConfig modes[] = {
      {"container (4 workers/module)", slice::IsolationMode::kContainer, 4},
      {"SGX, max_threads=4 (1 enclave worker)", slice::IsolationMode::kSgx, 4},
      {"SGX, max_threads=8 (5 enclave workers)", slice::IsolationMode::kSgx,
       8},
  };

  // One flat sweep over every (mode, rate, seed): independent sims, so
  // the shard runner fans them all out at once instead of per point.
  std::vector<load::SweepCase> cases;
  for (const ModeConfig& mode : modes) {
    for (double rate : rates) {
      for (std::size_t s = 0; s < kSeeds; ++s) {
        cases.push_back(
            make_case(mode, rate, ues, static_cast<std::uint64_t>(s + 1)));
      }
    }
  }
  const std::vector<load::SweepResult> results = load::run_sweep(cases);

  json::Array mode_entries;
  std::size_t cursor = 0;
  for (const ModeConfig& mode : modes) {
    bench::subheading(mode.label);
    std::printf("  %10s %14s %14s %14s %10s %6s %9s\n", "offered/s",
                "setup p50 ms", "setup p95 ms", "achieved/s", "queue frac",
                "shed", "shed prob");
    double knee = 0;
    double base_p50 = 0;
    json::Array points;
    for (double rate : rates) {
      std::vector<const load::SweepResult*> seeds;
      for (std::size_t s = 0; s < kSeeds; ++s) {
        seeds.push_back(&results[cursor++]);
      }
      const Point point = aggregate_point(rate, seeds);
      if (base_p50 == 0) base_p50 = point.setup_p50_ms;
      if (knee == 0 && point.setup_p50_ms > 2.0 * base_p50) knee = rate;
      std::printf("  %10.0f %14.2f %14.2f %14.0f %10.2f %6llu %9.4f\n", rate,
                  point.setup_p50_ms, point.setup_p95_ms, point.achieved_per_s,
                  point.queue_share,
                  static_cast<unsigned long long>(point.shed),
                  point.shed_probability);
      json::Object entry;
      entry["offered_per_s"] = json::Value(point.offered_per_s);
      entry["setup_p50_ms"] = json::Value(point.setup_p50_ms);
      entry["setup_p95_ms"] = json::Value(point.setup_p95_ms);
      entry["achieved_per_s"] = json::Value(point.achieved_per_s);
      entry["queue_share"] = json::Value(point.queue_share);
      entry["shed"] = json::Value(point.shed);
      entry["shed_probability"] = json::Value(point.shed_probability);
      points.emplace_back(std::move(entry));
    }
    if (knee > 0) {
      std::printf("  saturation knee (p50 > 2x unloaded): %.0f/s\n", knee);
    } else {
      std::printf("  no saturation knee within the swept range\n");
    }
    json::Object mode_entry;
    mode_entry["mode"] = json::Value(mode.label);
    mode_entry["points"] = json::Value(std::move(points));
    mode_entries.emplace_back(std::move(mode_entry));
  }

  json::Object root;
  root["schema"] = json::Value(kSchemaId);
  root["ue_count"] = json::Value(static_cast<std::uint64_t>(ues));
  root["seeds"] = json::Value(static_cast<std::uint64_t>(kSeeds));
  root["workers"] = json::Value(static_cast<std::uint64_t>(workers));
  root["modes"] = json::Value(std::move(mode_entries));

  if (!bench::write_json(out_path, json::Value(std::move(root)))) return 1;

  bench::print_note("SGX at the paper's TCS budget saturates earliest; "
                    "raising sgx.max_threads moves the knee toward the "
                    "container curve (the scaling axis Fig. 8 could not "
                    "show with one UE in flight). Sheds at the NGAP edge "
                    "are counted per point, not retransmitted.");
  return 0;
}
