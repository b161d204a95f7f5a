// Shared declarations of the host-cost benchmark (perfbench).
//
// The benchmark measures host wall time per UE registration through the
// simulator's public entry points. Three workloads, each open-loop
// Poisson in virtual time and batch in host time (the host drains the
// drawn schedule as fast as it can):
//
//   steady    3 isolation modes, deployed fast paths on, 400 UEs/s
//   overload  the same deployment at 2000 UEs/s (>= 2x every capacity)
//   serving   1M-subscriber provision, then the 8-slot serving plane on
//             2 worker threads under the legacy SBI policy, per mode
//
// An untraced run prints the end-to-end metrics; a traced run prints the
// per-layer metrics (layers.cpp). Both end with one JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/generator.h"
#include "load/serving.h"
#include "slice/slice.h"

namespace perfbench {

using shield5g::slice::IsolationMode;

inline constexpr IsolationMode kModes[] = {IsolationMode::kMonolithic,
                                           IsolationMode::kContainer,
                                           IsolationMode::kSgx};
inline constexpr int kModeCount = 3;

/// Host steady clock in seconds.
double now_s();

/// CPU seconds consumed by the calling thread / by the whole process.
double thread_cpu_s();
double process_cpu_s();

/// Heap allocations made by this process so far (operator-new hook in
/// main.cpp).
std::uint64_t alloc_count() noexcept;

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Median of a sample vector (0 when empty).
double median(std::vector<double> values);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file and the captured log (created if
  /// missing).
  std::string out_dir = ".bench_build/perfbench/out";
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload run hands back to main().
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  // UEs attempted in measured runs
  std::uint64_t failed = 0;     // UEs lost or failed with an error
  std::vector<std::string> errors;  // correctness-gate failures
  std::vector<std::string> digests;  // "<case> <hex digest>" per case

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

// ---- Workload parameters ---------------------------------------------

/// Fixed input sizes of a workload. Host metrics are work per second at
/// these sizes, so a change here is a change of benchmark, not of the
/// program.
struct WorkloadSpec {
  std::string name;
  double rate_per_s = 0.0;      // virtual-time Poisson arrival rate
  std::uint32_t ue_count = 0;   // UEs per mode per repetition
  std::uint32_t warm_ues = 0;   // UEs per mode in the warm-up pass
  bool serving = false;         // serving plane instead of one slice
  /// Overload may end UEs with an error (not only a shed); the other
  /// workloads run below capacity, where any error is a bug.
  bool errors_allowed = false;
};

/// Looks up a workload by name; false when unknown.
bool find_workload(const std::string& name, WorkloadSpec& out);

/// Slice configuration of one (workload, mode, seed) case.
shield5g::slice::SliceConfig slice_config(const WorkloadSpec& spec,
                                          IsolationMode mode,
                                          std::uint64_t seed,
                                          std::uint32_t ues);
shield5g::load::LoadConfig load_config(const WorkloadSpec& spec,
                                       std::uint64_t seed, std::uint32_t ues);
shield5g::load::ServingConfig serving_config(const WorkloadSpec& spec,
                                             IsolationMode mode,
                                             std::uint64_t seed,
                                             std::uint32_t ues);

/// Worker threads of the serving plane.
inline constexpr unsigned kServeWorkers = 2;
/// Subscribers of the serving workload's provision phase.
inline constexpr std::uint32_t kProvisionCount = 1'000'000;

// ---- One measured case -----------------------------------------------

struct CaseRun {
  IsolationMode mode = IsolationMode::kSgx;
  double create_s = 0.0;  // Slice construction + create()
  double run_s = 0.0;     // LoadGenerator::run (or the whole plane)
  double run_cpu_s = 0.0;  // CPU seconds of the same window
  std::uint32_t attempted = 0;
  shield5g::load::LoadReport report;  // serving: totals only
  std::uint64_t digest = 0;
  std::uint64_t shed = 0;
  std::uint64_t fastpath_hits = 0;
  std::vector<shield5g::load::QueueSnapshot> queues;  // single slice only
  shield5g::load::ServingReport plane;                 // serving only
};

/// Work counts of one single-slice run, taken on the running thread by
/// the traced run (layers.cpp): begin just before LoadGenerator::run,
/// end just after.
struct Probe;
void probe_begin(Probe& probe, shield5g::slice::Slice& s);
void probe_end(Probe& probe, shield5g::slice::Slice& s);

/// Runs one single-slice case on the calling thread, with `probe`
/// around the load run when given.
CaseRun run_slice_case(const WorkloadSpec& spec, IsolationMode mode,
                       std::uint64_t seed, std::uint32_t ues,
                       Probe* probe = nullptr);

/// Runs one serving-plane case (kServeWorkers threads).
CaseRun run_serving_case(const WorkloadSpec& spec, IsolationMode mode,
                         std::uint64_t seed, std::uint32_t ues);

/// Correctness gate for one case; appends failures to `errors`.
void check_case(const WorkloadSpec& spec, const CaseRun& run,
                std::vector<std::string>& errors);

/// One set-up of the workload, in seconds: the kProvisionCount-subscriber
/// provision on serving, then the warm-up pass (one small case per mode,
/// which builds and creates that mode's slices).
double set_up(const WorkloadSpec& spec, std::uint64_t seed);

/// Untraced run: end-to-end metrics.
Outcome run_end_to_end(const WorkloadSpec& spec, const Options& opt);

/// Traced run: per-layer metrics (layers.cpp).
Outcome run_layers(const WorkloadSpec& spec, const Options& opt);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
