// Workload definitions, the case runners and the untraced end-to-end
// run.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/log.h"
#include "load/sweep.h"
#include "trace.h"

namespace perfbench {

using shield5g::LogLevel;
namespace load = shield5g::load;
namespace slice = shield5g::slice;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's maxrss
  // also keeps the peak of the process image replaced by exec (the
  // Python launcher), which would hide a small benchmark's own peak.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0.0) return kib / 1024.0;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

namespace {

// Every workload's inputs derive from the CLI seed through fixed
// domain-separation constants, so the same seed gives the same inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t domain) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const WorkloadSpec kWorkloads[] = {
    // name, rate/s, UEs per mode per repetition, warm-up UEs, serving,
    // errors allowed
    {"steady", 400.0, 250, 8, false, false},
    {"overload", 2000.0, 1000, 8, false, true},
    {"serving", 1600.0, 400, 16, true, false},
};

/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread, and the threads it starts later, to `mask`.
void pin_thread(const std::vector<int>& mask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : mask) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// The CPUs of set-up or round `i`. On a shared host each CPU's speed
/// drifts on its own, so rounds rotate over every allowed CPU
/// (single-slice workloads) or every pair of allowed CPUs (the serving
/// plane, whose worker threads inherit the mask): each run samples the
/// same mix instead of whichever CPUs the scheduler happened to pick.
std::vector<int> round_cpus(const std::vector<int>& cpus, bool serving,
                            int i) {
  const std::size_t width = serving ? kServeWorkers : 1;
  if (cpus.size() < width) return cpus;
  std::vector<std::vector<int>> choices;
  for (std::size_t a = 0; a < cpus.size(); ++a) {
    if (width == 1) {
      choices.push_back({cpus[a]});
      continue;
    }
    for (std::size_t b = a + 1; b < cpus.size(); ++b) {
      choices.push_back({cpus[a], cpus[b]});
    }
  }
  return choices[static_cast<std::size_t>(i) % choices.size()];
}

/// The quiet window: warnings stay out of timed sections.
class QuietLogs {
 public:
  QuietLogs() : saved_(shield5g::log_level()) {
    shield5g::set_log_level(LogLevel::kError);
  }
  ~QuietLogs() { shield5g::set_log_level(saved_); }
  QuietLogs(const QuietLogs&) = delete;
  QuietLogs& operator=(const QuietLogs&) = delete;

 private:
  LogLevel saved_;
};

std::uint64_t case_digest(const CaseRun& run, const char* label) {
  load::SweepResult r;
  r.label = label;
  r.report = run.report;
  r.queues = run.queues;
  r.shed = run.shed;
  return load::sweep_digest({r});
}

}  // namespace

bool find_workload(const std::string& name, WorkloadSpec& out) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) {
      out = w;
      return true;
    }
  }
  return false;
}

slice::SliceConfig slice_config(const WorkloadSpec& spec, IsolationMode mode,
                                std::uint64_t seed, std::uint32_t ues) {
  slice::SliceConfig cfg;
  cfg.mode = mode;
  cfg.subscriber_count = ues;
  cfg.seed = mix(seed, 1);
  // steady/overload run the deployed fast paths; serving keeps OAI's
  // legacy policy (one-shot connections, full handshakes, no key pool).
  cfg.tls_resumption = !spec.serving;
  cfg.eph_pool = !spec.serving;
  return cfg;
}

load::LoadConfig load_config(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint32_t ues) {
  load::LoadConfig lc;
  lc.ue_count = ues;
  lc.arrivals.kind = load::ArrivalKind::kPoisson;
  lc.arrivals.rate_per_s = spec.rate_per_s;
  lc.seed = mix(seed, 2);
  return lc;
}

load::ServingConfig serving_config(const WorkloadSpec& spec,
                                   IsolationMode mode, std::uint64_t seed,
                                   std::uint32_t ues) {
  load::ServingConfig cfg;
  cfg.slice = slice_config(spec, mode, seed, ues);
  cfg.ue_count = ues;
  cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_s = spec.rate_per_s;
  cfg.seed = mix(seed, 2);
  return cfg;
}

CaseRun run_slice_case(const WorkloadSpec& spec, IsolationMode mode,
                       std::uint64_t seed, std::uint32_t ues,
                       Probe* probe) {
  const char* name = slice::isolation_mode_name(mode);
  CaseRun out;
  out.mode = mode;
  out.attempted = ues;
  std::optional<slice::Slice> built;
  {
    trace::Scoped span("slice.create", name);
    const double t0 = now_s();
    built.emplace(slice_config(spec, mode, seed, ues));
    built->create();
    out.create_s = now_s() - t0;
  }
  slice::Slice& s = *built;
  if (probe != nullptr) probe_begin(*probe, s);
  {
    trace::Scoped run_span("load.run", name);
    load::LoadGenerator generator;
    const double c1 = thread_cpu_s();
    const double t1 = now_s();
    out.report = generator.run(s, load_config(spec, seed, ues));
    out.run_s = now_s() - t1;
    out.run_cpu_s = thread_cpu_s() - c1;
  }
  if (probe != nullptr) probe_end(*probe, s);
  out.queues = load::queue_snapshots(s);
  for (const load::QueueSnapshot& q : out.queues) out.shed += q.rejected;
  out.fastpath_hits = s.bus().fastpath_hits();
  out.digest = case_digest(out, name);
  return out;
}

CaseRun run_serving_case(const WorkloadSpec& spec, IsolationMode mode,
                         std::uint64_t seed, std::uint32_t ues) {
  CaseRun out;
  out.mode = mode;
  out.attempted = ues;
  trace::Scoped span("load.run_serving", slice::isolation_mode_name(mode));
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  out.plane = load::run_serving(serving_config(spec, mode, seed, ues),
                                kServeWorkers);
  out.run_s = now_s() - t0;
  out.run_cpu_s = process_cpu_s() - c0;
  out.report.completed = out.plane.completed;
  out.report.registered = out.plane.registered;
  out.report.sessions_up = out.plane.sessions_up;
  out.report.failed = out.plane.failed;
  out.report.failed_shed = out.plane.failed_shed;
  out.report.failed_error = out.plane.failed_error;
  out.shed = out.plane.shed;
  out.fastpath_hits = out.plane.fastpath_hits;
  out.digest = out.plane.digest;
  return out;
}

void check_case(const WorkloadSpec& spec, const CaseRun& run,
                std::vector<std::string>& errors) {
  const load::LoadReport& r = run.report;
  const char* mode = slice::isolation_mode_name(run.mode);
  char buf[256];
  if (r.completed != run.attempted ||
      r.registered + r.failed != r.completed ||
      r.failed != r.failed_shed + r.failed_error) {
    std::snprintf(buf, sizeof(buf),
                  "%s: UEs unaccounted for (attempted=%u completed=%u "
                  "registered=%u failed=%u shed=%u error=%u)",
                  mode, run.attempted, r.completed, r.registered, r.failed,
                  r.failed_shed, r.failed_error);
    errors.emplace_back(buf);
  }
  if (!spec.errors_allowed && r.failed_error > 0) {
    std::snprintf(buf, sizeof(buf), "%s: %u UEs failed with an error", mode,
                  r.failed_error);
    errors.emplace_back(buf);
  }
  if (r.registered == 0) {
    std::snprintf(buf, sizeof(buf), "%s: no UE registered", mode);
    errors.emplace_back(buf);
  }
}

namespace {

/// Provisions a kProvisionCount-subscriber population-mode slice (the
/// serving workload's provision phase).
void provision_population(std::uint64_t seed) {
  trace::Scoped span("slice.provision", "population");
  slice::SliceConfig cfg;
  cfg.mode = IsolationMode::kMonolithic;  // pure store footprint
  cfg.seed = mix(seed, 3);
  cfg.population.resize(kProvisionCount);
  std::iota(cfg.population.begin(), cfg.population.end(), 0u);
  cfg.subscriber_count = kProvisionCount;
  slice::Slice s(cfg);
  s.create();
}

}  // namespace

double set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  trace::Scoped span("set_up", spec.name);
  QuietLogs quiet;
  const double t0 = now_s();
  if (spec.serving) provision_population(seed);
  for (const IsolationMode mode : kModes) {
    if (spec.serving) {
      run_serving_case(spec, mode, seed, spec.warm_ues);
    } else {
      run_slice_case(spec, mode, seed, spec.warm_ues);
    }
  }
  return now_s() - t0;
}

Outcome run_end_to_end(const WorkloadSpec& spec, const Options& opt) {
  Outcome out;

  const std::vector<int> cpus = allowed_cpus();

  // ---- Set-up: once before the first round, then once more at the
  // start of every round, so the reported median samples the host over
  // the whole run rather than one moment. The first runs in a fresh
  // process: process-once work (comb tables, pools, allocator arenas)
  // lands in it and in the stderr line below.
  std::vector<double> setups;
  setups.push_back(set_up(spec, opt.seed));

  // ---- Measured repetitions: one round is a set-up, then every mode
  // once; rounds repeat until the time budget is spent (at least three).
  std::vector<double> reg_us[kModeCount];
  std::vector<double> goodput;
  std::uint64_t first_digest[kModeCount] = {};
  const double deadline = now_s() + opt.seconds;
  int rounds = 0;
  while (rounds < 3 || now_s() < deadline) {
    pin_thread(round_cpus(cpus, spec.serving, rounds));
    setups.push_back(set_up(spec, opt.seed));
    double round_run = 0.0;
    std::uint64_t round_registered = 0;
    for (int m = 0; m < kModeCount; ++m) {
      CaseRun run;
      {
        QuietLogs quiet;
        run = spec.serving
                  ? run_serving_case(spec, kModes[m], opt.seed, spec.ue_count)
                  : run_slice_case(spec, kModes[m], opt.seed, spec.ue_count);
      }
      check_case(spec, run, out.errors);
      std::fprintf(stderr, "perfbench: round %d %-10s %8.2f ms wall %8.2f ms cpu\n",
                   rounds, slice::isolation_mode_name(kModes[m]),
                   1e3 * run.run_s, 1e3 * run.run_cpu_s);
      if (rounds == 0) {
        first_digest[m] = run.digest;
        out.digests.push_back(
            std::string(slice::isolation_mode_name(kModes[m])) + " " +
            hex64(run.digest));
      } else if (run.digest != first_digest[m]) {
        out.errors.push_back(std::string(slice::isolation_mode_name(kModes[m])) +
                             ": digest differs between repetitions (" +
                             hex64(first_digest[m]) + " vs " +
                             hex64(run.digest) + ")");
      }
      out.attempted += run.attempted;
      out.failed += run.report.failed_error +
                    (run.attempted - std::min(run.attempted,
                                              run.report.completed));
      reg_us[m].push_back(1e6 * run.run_s /
                          std::max<std::uint32_t>(run.report.registered, 1));
      round_run += run.run_s;
      round_registered += run.report.registered;
    }
    goodput.push_back(round_registered / round_run);
    ++rounds;
  }

  pin_thread(cpus);
  std::fprintf(stderr, "perfbench: set-up first %.4f s, median %.4f s\n",
               setups.front(), median(setups));
  // Every round repeats the same deterministic work, so round-to-round
  // differences are host interference. Rare undisturbed rounds run up to
  // a third faster than the rest, so the fastest round moves between runs
  // far more than the median does.
  for (int m = 0; m < kModeCount; ++m) {
    out.add(std::string("reg_us.") + slice::isolation_mode_name(kModes[m]),
            median(reg_us[m]), "us", reg_us[m].size());
  }
  out.add("goodput_rps", median(goodput), "1/s", goodput.size());
  out.add("setup_s", median(setups), "s", setups.size());
  out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return out;
}

}  // namespace perfbench
