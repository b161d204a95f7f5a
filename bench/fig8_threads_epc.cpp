// FIG8 — Effect of the enclave thread budget and EPC size on the eUDM
// P-AKA module (paper Fig. 8).
//
// Sweeps sgx.max_threads in {4, 10, 50} and the EPC size in
// {512M, 2G, 8G}, plus the non-SGX container baseline, and reports the
// functional (L_F) and total (L_T) latency of the module. Each
// configuration is an independent simulation (own clock, module, bus),
// so the six rows fan out over the shard pool and print in config
// order — bit-identical to a sequential run. Paper: more threads do
// not help a single-threaded server; EPC beyond 512 MB does not help
// either, and 8 GB slightly *hurts* with a wider interquartile range
// (paging).
#include <vector>

#include "bench/bench_util.h"
#include "bench/paka_harness.h"
#include "sim/shard_pool.h"

using namespace shield5g;

namespace {

struct Config {
  const char* label;
  paka::Isolation isolation;
  std::uint32_t threads;
  std::uint64_t epc;
};

struct ConfigResult {
  Samples lf_us;
  Samples lt_us;
};

ConfigResult run_config(const Config& config, int requests) {
  paka::PakaOptions opts;
  opts.isolation = config.isolation;
  opts.max_threads = config.threads;
  opts.epc_size = config.epc;
  bench::ModuleBench<paka::EudmAkaService> mb(opts);
  mb.deploy();

  const auto req = bench::eudm_request();
  mb.request(req);  // absorb the first-request cold path
  mb.service->server().reset_stats();
  for (int i = 0; i < requests; ++i) mb.request(req);

  return {mb.service->server().lf_us(), mb.service->server().lt_us()};
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 500, bench::Args::kCount);
  const unsigned workers = sim::shard_workers();
  bench::heading(
      "FIG 8: thread count and EPC size sweep on the eUDM P-AKA module");
  std::printf("  %d requests per configuration, %u shard worker%s\n", n,
              workers, workers == 1 ? "" : "s");

  const Config configs[] = {
      {"SGX threads=4  EPC=512M", paka::Isolation::kSgx, 4, 512ULL << 20},
      {"SGX threads=10 EPC=512M", paka::Isolation::kSgx, 10, 512ULL << 20},
      {"SGX threads=50 EPC=512M", paka::Isolation::kSgx, 50, 512ULL << 20},
      {"SGX threads=4  EPC=2G", paka::Isolation::kSgx, 4, 2ULL << 30},
      {"SGX threads=50 EPC=8G", paka::Isolation::kSgx, 50, 8ULL << 30},
      {"Non-SGX (container)", paka::Isolation::kContainer, 4, 512ULL << 20},
  };

  sim::ShardPool pool;
  const std::vector<ConfigResult> results = pool.map(
      std::size(configs),
      [&configs, n](std::size_t i) { return run_config(configs[i], n); });
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    bench::subheading(configs[i].label);
    bench::print_dist_row("L_F (functional)", results[i].lf_us, "us");
    bench::print_dist_row("L_T (total)", results[i].lt_us, "us");
  }

  bench::paper_row("threads 4 -> 50", "no improvement (server is "
                   "single-threaded; 3 Gramine helpers + 1 worker)");
  bench::paper_row("EPC 512M -> 2G", "no effect");
  bench::paper_row("EPC 8G", "slight slowdown, wider IQR (paging)");
  bench::paper_row("non-SGX L_F / L_T", "~50-60 us / ~100-175 us band for "
                   "the SGX rows vs lower non-SGX");
  return 0;
}
