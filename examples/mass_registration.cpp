// Mass registration: the paper's gNBSIM methodology (§V-A) — establish
// many gNB-UE connections against the core at scale and characterise
// the latency distribution per isolation mode.
//
//   $ ./mass_registration [ue_count] [offered_load_per_s]
//
// Without an offered load the UEs register back to back (the paper's
// closed-loop methodology, numbers identical to the seed). With one,
// arrivals are an open-loop Poisson process driven through the
// concurrent-registration engine, and queueing delay at each module is
// reported separately from the service windows.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "load/generator.h"
#include "ran/ue.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

void print_module_stats(slice::Slice& slice) {
  if (slice.config().mode != slice::IsolationMode::kSgx || !slice.eudm()) {
    return;
  }
  std::printf("             eUDM served %llu requests, L_F p50 %.1f us, "
              "L_T p50 %.1f us\n",
              static_cast<unsigned long long>(
                  slice.eudm()->server().requests_served()),
              slice.eudm()->server().lf_us().median(),
              slice.eudm()->server().lt_us().median());
}

void run_mode(slice::IsolationMode mode, std::uint32_t ue_count) {
  slice::SliceConfig config;
  config.mode = mode;
  config.subscriber_count = ue_count;
  slice::Slice slice(config);
  slice.create();

  std::vector<ran::UeDevice> ues;
  ues.reserve(ue_count);
  for (std::uint32_t i = 0; i < ue_count; ++i) {
    ues.emplace_back(slice.subscriber(i), 0x5eed + i);
  }
  const auto results = slice.gnbsim().run_mass(ues, /*with_pdu=*/true);

  std::uint32_t sessions = 0;
  for (const auto& r : results) sessions += r.session_up ? 1 : 0;
  const Summary setup = Summary::of(slice.gnbsim().setup_ms());
  std::printf("%-11s: %u/%u sessions up, setup %s\n",
              slice::isolation_mode_name(mode), sessions, ue_count,
              setup.to_string("ms").c_str());
  print_module_stats(slice);
}

void run_mode_open_loop(slice::IsolationMode mode, std::uint32_t ue_count,
                        double rate_per_s) {
  slice::SliceConfig config;
  config.mode = mode;
  config.subscriber_count = ue_count;
  slice::Slice slice(config);
  slice.create();

  load::LoadConfig load_cfg;
  load_cfg.ue_count = ue_count;
  load_cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  load_cfg.arrivals.rate_per_s = rate_per_s;
  load::LoadGenerator generator;
  const load::LoadReport report = generator.run(slice, load_cfg);

  std::printf("%-11s: %s\n", slice::isolation_mode_name(mode),
              report.summary().c_str());
  print_module_stats(slice);

  // Queueing delay per module, separate from the L_F/L_T service
  // windows above (only servers that actually queued or shed requests).
  for (const load::QueueSnapshot& q : load::queue_snapshots(slice)) {
    if (q.queued == 0 && q.rejected == 0) continue;
    std::printf("             %-10s workers=%u queued %llu/%llu "
                "(%llu shed), wait p50 %.1f us max %.1f us\n",
                q.server.c_str(), q.workers,
                static_cast<unsigned long long>(q.queued),
                static_cast<unsigned long long>(q.admitted),
                static_cast<unsigned long long>(q.rejected), q.wait_p50_us,
                q.wait_max_us);
  }
}

// Both arguments are plain unsigned numbers consumed to their end: no
// sign, no leading space, nothing trailing.
bool parse_ue_count(const char* arg, std::uint32_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(arg[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(arg, &end, 10);
  if (errno != 0 || *end != '\0' || v == 0 ||
      v > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_rate(const char* arg, double& out) {
  if (!std::isdigit(static_cast<unsigned char>(arg[0])) && arg[0] != '.') {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t ue_count = 100;
  double rate_per_s = 0.0;
  if (argc > 3 || (argc > 1 && !parse_ue_count(argv[1], ue_count)) ||
      (argc > 2 && !parse_rate(argv[2], rate_per_s))) {
    std::fprintf(stderr,
                 "usage: %s [ue_count >= 1] [offered_load_per_s >= 0]\n",
                 argv[0]);
    return 1;
  }

  if (rate_per_s > 0.0) {
    std::printf("registering %u UEs per isolation mode, open-loop Poisson "
                "arrivals at %.0f/s\n\n",
                ue_count, rate_per_s);
    run_mode_open_loop(slice::IsolationMode::kMonolithic, ue_count,
                       rate_per_s);
    run_mode_open_loop(slice::IsolationMode::kContainer, ue_count,
                       rate_per_s);
    run_mode_open_loop(slice::IsolationMode::kSgx, ue_count, rate_per_s);
    return 0;
  }

  std::printf("registering %u UEs per isolation mode via gNBSIM\n\n",
              ue_count);
  run_mode(slice::IsolationMode::kMonolithic, ue_count);
  run_mode(slice::IsolationMode::kContainer, ue_count);
  run_mode(slice::IsolationMode::kSgx, ue_count);
  return 0;
}
