// TAB2 — SGX overhead across the isolated modules (paper Table II) plus
// the end-to-end session-setup share discussed in §V-B4.
//
// Combines the Fig. 9 (L_F, L_T) and Fig. 10 (R) measurements into the
// paper's ratio table, then measures full UE session setup with and
// without SGX to compute the fraction of the setup delay attributable
// to enclave isolation.
#include "bench/bench_util.h"
#include "bench/paka_harness.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

struct ModuleRatios {
  double lf = 0, lt = 0, rs = 0, ri_over_rs = 0;
};

template <typename Service>
ModuleRatios measure_module(const net::HttpRequest& req, int n) {
  ModuleRatios ratios;
  Samples lf_c, lt_c, r_c, lf_s, lt_s, r_s, r_i;

  for (paka::Isolation isolation :
       {paka::Isolation::kContainer, paka::Isolation::kSgx}) {
    paka::PakaOptions opts;
    opts.isolation = isolation;
    bench::ModuleBench<Service> mb(opts);
    mb.deploy();
    const auto first = mb.request(req);
    if (isolation == paka::Isolation::kSgx) {
      r_i.add(sim::to_us(first.response_ns));
    }
    mb.service->server().reset_stats();
    for (int i = 0; i < n; ++i) {
      const auto exchange = mb.request(req);
      if (isolation == paka::Isolation::kSgx) {
        r_s.add(sim::to_us(exchange.response_ns));
      } else {
        r_c.add(sim::to_us(exchange.response_ns));
      }
    }
    auto& lf = isolation == paka::Isolation::kSgx ? lf_s : lf_c;
    auto& lt = isolation == paka::Isolation::kSgx ? lt_s : lt_c;
    for (double v : mb.service->server().lf_us().values()) lf.add(v);
    for (double v : mb.service->server().lt_us().values()) lt.add(v);
  }
  ratios.lf = lf_s.median() / lf_c.median();
  ratios.lt = lt_s.median() / lt_c.median();
  ratios.rs = r_s.median() / r_c.median();
  ratios.ri_over_rs = r_i.mean() / r_s.median();
  return ratios;
}

double mean_setup_ms(slice::IsolationMode mode, int regs) {
  slice::SliceConfig cfg;
  cfg.mode = mode;
  cfg.subscriber_count = static_cast<std::uint32_t>(regs + 1);
  slice::Slice s(cfg);
  s.create();
  s.register_subscriber(0, true);
  Samples setup;
  for (int i = 1; i <= regs; ++i) {
    setup.add(sim::to_ms(
        s.register_subscriber(static_cast<std::uint32_t>(i), true)
            .setup_time));
  }
  return setup.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 300, bench::Args::kCount);
  bench::heading("TABLE II: SGX overhead across the isolated modules");
  std::printf("  %d requests per module per isolation\n", n);

  const ModuleRatios udm =
      measure_module<paka::EudmAkaService>(bench::eudm_request(), n);
  const ModuleRatios ausf =
      measure_module<paka::EausfAkaService>(bench::eausf_request(), n);
  const ModuleRatios amf =
      measure_module<paka::EamfAkaService>(bench::eamf_request(), n);

  std::printf("\n  %-8s %8s %8s %12s %12s\n", "Module", "L_F", "L_T",
              "R_S^SGX/R^C", "R_I/R_S");
  auto row = [](const char* name, const ModuleRatios& r) {
    std::printf("  %-8s %7.2fx %7.2fx %11.2fx %11.2fx\n", name, r.lf, r.lt,
                r.rs, r.ri_over_rs);
  };
  row("eUDM", udm);
  row("eAUSF", ausf);
  row("eAMF", amf);
  bench::paper_row("eUDM", "L_F 1.2x  L_T 1.86x  R 2.2x  R_I/R_S 19.04");
  bench::paper_row("eAUSF", "L_F 1.3x  L_T 2.15x  R 2.5x  R_I/R_S 18.37");
  bench::paper_row("eAMF", "L_F 1.5x  L_T 2.43x  R 2.9x  R_I/R_S 21.42");

  bench::subheading("end-to-end session setup share (paper §V-B4)");
  const int regs = std::max(10, n / 10);
  const double container_ms =
      mean_setup_ms(slice::IsolationMode::kContainer, regs);
  const double sgx_ms = mean_setup_ms(slice::IsolationMode::kSgx, regs);
  bench::print_kv("session setup, container", container_ms, "ms");
  bench::print_kv("session setup, SGX", sgx_ms, "ms");
  bench::print_kv("cumulative SGX delay", sgx_ms - container_ms, "ms");
  bench::print_kv("SGX share of setup",
                  (sgx_ms - container_ms) / sgx_ms * 100.0, "%");
  bench::paper_row("session setup", "62.38 ms end to end");
  bench::paper_row("cumulative SGX delay", "3.48 ms = 5.58% of setup");
  return 0;
}
