// SHARD SCALING — wall-clock scaling of the deterministic shard runner.
//
// Runs one fixed registration sweep (modes x rates x seeds) repeatedly:
// first sequentially (the workers=1 inline path, no pool machinery),
// then at each requested worker count. For every run it reports sweep
// wall time, aggregate registrations per wall-clock second, and the
// order-sensitive FNV digest of everything deterministic in the
// results. The determinism contract is enforced here, not just
// documented: any digest that differs from the sequential reference
// fails the bench with a per-case diff.
//
//   $ ./shard_scaling [--smoke] [--workers 1,2,4,8] [--digest prefix] [out.json]
//
// --smoke shrinks the sweep for CI. --digest writes the per-case digest
// lines to <prefix>_seq.txt and <prefix>_w<N>.txt so CI can diff them
// byte-for-byte. Writes BENCH_scaling.json (schema
// shield5g.bench.shard_scaling.v1). Wall time and speedup are recorded,
// never gated: the exit status is non-zero only on a digest divergence
// or a write failure.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "json/json.h"
#include "load/sweep.h"
#include "sim/shards.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

constexpr const char* kSchemaId = "shield5g.bench.shard_scaling.v1";

struct Options {
  bool smoke = false;
  std::vector<unsigned> worker_counts = {1, 2, 4, 8};
  std::string digest_prefix;  // empty = no digest files
  std::string out_path = "BENCH_scaling.json";
};

struct RunResult {
  unsigned workers = 0;
  double wall_ms = 0.0;
  double regs_per_s = 0.0;
  double speedup = 0.0;  // sequential wall / this wall
  std::uint64_t digest = 0;
  bool match = false;  // digest == sequential reference digest
};

// Comma-separated positive integers, consumed to the end: an empty
// entry, a sign or trailing junk rejects the whole list instead of
// silently dropping the rest of it.
std::vector<unsigned> parse_worker_list(const char* arg) {
  std::vector<unsigned> counts;
  for (const char* p = arg;; ++p) {
    char* end = nullptr;
    errno = 0;
    const unsigned long v = std::isdigit(static_cast<unsigned char>(*p))
                                ? std::strtoul(p, &end, 10)
                                : 0;
    if (v == 0 || errno != 0 || v > std::numeric_limits<unsigned>::max() ||
        (*end != ',' && *end != '\0')) {
      std::fprintf(stderr, "shard_scaling: bad --workers list '%s'\n", arg);
      std::exit(2);
    }
    counts.push_back(static_cast<unsigned>(v));
    if (*end == '\0') return counts;
    p = end;
  }
}

Options parse_args(int argc, char** argv) {
  Options opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      opt.worker_counts = parse_worker_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--digest") == 0 && i + 1 < argc) {
      opt.digest_prefix = argv[++i];
    } else if (positional++ == 0) {
      opt.out_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--workers 1,2,4] [--digest prefix] "
                   "[out.json]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

/// The canonical scaling workload: every isolation mode at a low and a
/// saturating rate, several seeds each — enough independent shards to
/// keep 8 workers busy, with a digest surface that covers trace hashes,
/// queue states and shed counts. Each case runs under three SBI
/// policies: legacy (one-shot connections, no pool), the deployed one
/// (TLS resumption plus the ephemeral-key pool), and the deployed one
/// under burst arrivals of 8 simultaneous UEs.
std::vector<load::SweepCase> make_cases(bool smoke) {
  const std::uint32_t ues = smoke ? 40 : 200;
  const std::size_t seeds = smoke ? 2 : 4;
  const double rates[] = {200, 1600};
  const slice::IsolationMode modes[] = {slice::IsolationMode::kMonolithic,
                                        slice::IsolationMode::kContainer,
                                        slice::IsolationMode::kSgx};
  struct Policy {
    const char* tag;
    bool pool;
    bool burst;
  };
  const Policy policies[] = {
      {"", false, false}, {" resume+pool", true, false},
      {" resume+pool burst=8", true, true}};
  std::vector<load::SweepCase> cases;
  for (const Policy& policy : policies) {
    for (const slice::IsolationMode mode : modes) {
      for (const double rate : rates) {
        for (std::size_t s = 0; s < seeds; ++s) {
          load::SweepCase c;
          char label[96];
          std::snprintf(label, sizeof(label), "%s rate=%.0f seed=%zu%s",
                        slice::isolation_mode_name(mode), rate, s,
                        policy.tag);
          c.label = label;
          c.slice.mode = mode;
          c.slice.subscriber_count = ues;
          c.slice.seed = 0x5CA1EULL + s;
          c.slice.tls_resumption = policy.pool;
          c.slice.eph_pool = policy.pool;
          c.load.ue_count = ues;
          c.load.arrivals.kind = policy.burst ? load::ArrivalKind::kBurst
                                              : load::ArrivalKind::kPoisson;
          c.load.arrivals.burst_size = 8;
          c.load.arrivals.rate_per_s = rate;
          c.load.seed = 0xD1CEULL + s;
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t total_registered(const std::vector<load::SweepResult>& r) {
  std::uint64_t total = 0;
  for (const load::SweepResult& s : r) total += s.report.registered;
  return total;
}

bool write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) {
    std::fprintf(stderr, "shard_scaling: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Prints which cases diverged so a determinism break is debuggable
/// from the CI log alone.
void print_divergence(const std::vector<std::string>& want,
                      const std::vector<std::string>& got) {
  const std::size_t n = want.size() < got.size() ? want.size() : got.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      std::fprintf(stderr, "  case %zu:\n    seq: %s\n    par: %s\n", i,
                   want[i].c_str(), got[i].c_str());
    }
  }
  if (want.size() != got.size()) {
    std::fprintf(stderr, "  case count differs: seq=%zu par=%zu\n",
                 want.size(), got.size());
  }
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  // The CPUs the shard workers can run on (the affinity mask, which
  // taskset narrows), the bound on any speedup below.
  const unsigned cores = sim::shard_workers();
  const std::vector<load::SweepCase> cases = make_cases(opt.smoke);

  bench::heading("SHARD SCALING: deterministic sweep at 1..N workers");
  std::printf("  %zu independent cases, host cores=%u%s\n", cases.size(),
              cores, opt.smoke ? " (smoke)" : "");

  // Sequential reference: the workers=1 inline path, timed like the rest.
  const double seq_t0 = now_ms();
  const std::vector<load::SweepResult> reference = load::run_sweep(cases, 1);
  const double seq_wall_ms = now_ms() - seq_t0;
  const std::uint64_t seq_digest = load::sweep_digest(reference);
  const std::vector<std::string> seq_lines = load::sweep_digest_lines(reference);
  const std::uint64_t regs = total_registered(reference);
  std::printf("  sequential: %.1f ms, %" PRIu64 " registrations, digest %s\n",
              seq_wall_ms, regs, hex64(seq_digest).c_str());
  if (!opt.digest_prefix.empty() &&
      !write_lines(opt.digest_prefix + "_seq.txt", seq_lines)) {
    return 1;
  }

  bool deterministic = true;
  std::vector<RunResult> runs;
  for (const unsigned workers : opt.worker_counts) {
    RunResult run;
    run.workers = workers;
    const double t0 = now_ms();
    const std::vector<load::SweepResult> results = load::run_sweep(cases, workers);
    run.wall_ms = now_ms() - t0;
    run.digest = load::sweep_digest(results);
    run.match = run.digest == seq_digest;
    run.speedup = run.wall_ms > 0.0 ? seq_wall_ms / run.wall_ms : 0.0;
    run.regs_per_s = run.wall_ms > 0.0
                         ? static_cast<double>(total_registered(results)) /
                               (run.wall_ms / 1e3)
                         : 0.0;
    std::printf("  workers=%-3u %8.1f ms  %8.0f regs/s  speedup %.2fx  "
                "digest %s  %s\n",
                workers, run.wall_ms, run.regs_per_s, run.speedup,
                hex64(run.digest).c_str(),
                run.match ? "== sequential" : "DIVERGED");
    const std::vector<std::string> lines = load::sweep_digest_lines(results);
    if (!run.match) {
      deterministic = false;
      print_divergence(seq_lines, lines);
    }
    if (!opt.digest_prefix.empty() &&
        !write_lines(opt.digest_prefix + "_w" + std::to_string(workers) +
                         ".txt",
                     lines)) {
      return 1;
    }
    runs.push_back(run);
  }

  json::Object root;
  root["schema"] = json::Value(kSchemaId);
  root["smoke"] = json::Value(opt.smoke);
  root["cores"] = json::Value(static_cast<std::uint64_t>(cores));
  root["cases"] = json::Value(static_cast<std::uint64_t>(cases.size()));
  root["sequential_wall_ms"] = json::Value(seq_wall_ms);
  root["sequential_digest"] = json::Value(hex64(seq_digest));
  root["deterministic"] = json::Value(deterministic);
  json::Array run_entries;
  for (const RunResult& run : runs) {
    json::Object entry;
    entry["workers"] = json::Value(static_cast<std::uint64_t>(run.workers));
    entry["wall_ms"] = json::Value(run.wall_ms);
    entry["regs_per_s"] = json::Value(run.regs_per_s);
    entry["speedup"] = json::Value(run.speedup);
    entry["digest"] = json::Value(hex64(run.digest));
    entry["digest_matches_sequential"] = json::Value(run.match);
    run_entries.emplace_back(std::move(entry));
  }
  root["runs"] = json::Value(std::move(run_entries));

  if (!bench::write_json(opt.out_path, json::Value(std::move(root)))) {
    return 1;
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "shard_scaling: parallel sweep diverged from sequential\n");
    return 1;
  }
  return 0;
}
