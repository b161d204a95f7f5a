// perfbench: host cost per UE registration.
//
//   $ perfbench --workload steady|overload|serving --seed N --seconds S
//               --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics (with spans written to DIR). Human-readable lines come first;
// the last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Exit status is non-zero when the correctness gate fails.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>

#include "bench.h"
#include "trace.h"

// ---------------------------------------------------------------------
// Allocation counting: every scalar/array operator new bumps a relaxed
// atomic, so the traced run can report heap allocations per
// registration.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady|overload|serving --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage(argv[0]);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0)) usage(argv[0]);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0]);
      }
      opt.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      opt.out_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty()) usage(argv[0]);
  return opt;
}

/// JSON string escaping for metric names and units (plain ASCII).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  perfbench::WorkloadSpec spec;
  if (!perfbench::find_workload(opt.workload, spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  perfbench::Outcome out;
  try {
    out = opt.trace ? perfbench::run_layers(spec, opt)
                    : perfbench::run_end_to_end(spec, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& d : out.digests) {
    std::printf("  digest %s\n", d.c_str());
  }
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-34s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  bool finite = true;
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.errors.push_back("metric " + m.name + " is not finite");
      finite = false;
    }
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size() && finite; ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
