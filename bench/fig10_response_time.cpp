// FIG10 — Stable (R_S) and initial (R_I) response time of the P-AKA
// modules from the parent VNF's perspective (paper Fig. 10, feeding the
// R columns of Table II).
//
// R_S: repeated requests against a warm module. R_I: the first request
// after a fresh deployment, which walks the lazy-loading and cold code
// paths ("several OCALLs and ECALLs to load drivers and other network
// stack dependencies", §V-B4).
#include "bench/bench_util.h"
#include "bench/paka_harness.h"

using namespace shield5g;

namespace {

struct Series {
  Samples stable_us;
  Samples initial_ms;
};

template <typename Service>
Series measure(paka::Isolation isolation, const net::HttpRequest& req,
               int stable_n, int initial_n) {
  Series series;
  paka::PakaOptions opts;
  opts.isolation = isolation;

  {
    bench::ModuleBench<Service> mb(opts);
    mb.deploy();
    mb.request(req);  // cold path once
    for (int i = 0; i < stable_n; ++i) {
      series.stable_us.add(sim::to_us(mb.request(req).response_ns));
    }
  }
  for (int i = 0; i < initial_n; ++i) {
    bench::ModuleBench<Service> mb(opts, 100 + i);
    mb.deploy();
    series.initial_ms.add(sim::to_ms(mb.request(req).response_ns));
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  const int stable_n = bench::iterations(argc, argv, 500, bench::Args::kCount);
  const int initial_n = std::max(20, stable_n / 10);
  bench::heading("FIG 10: stable and initial response time of the modules");
  std::printf("  %d stable requests, %d fresh deployments per module\n",
              stable_n, initial_n);

  const auto cu = measure<paka::EudmAkaService>(
      paka::Isolation::kContainer, bench::eudm_request(), stable_n, 3);
  const auto ca = measure<paka::EausfAkaService>(
      paka::Isolation::kContainer, bench::eausf_request(), stable_n, 3);
  const auto cm = measure<paka::EamfAkaService>(
      paka::Isolation::kContainer, bench::eamf_request(), stable_n, 3);
  const auto su = measure<paka::EudmAkaService>(
      paka::Isolation::kSgx, bench::eudm_request(), stable_n, initial_n);
  const auto sa = measure<paka::EausfAkaService>(
      paka::Isolation::kSgx, bench::eausf_request(), stable_n, initial_n);
  const auto sm = measure<paka::EamfAkaService>(
      paka::Isolation::kSgx, bench::eamf_request(), stable_n, initial_n);

  bench::subheading("(a) stable response latency R_S");
  bench::print_dist_row("eUDM  container", cu.stable_us, "us");
  bench::print_dist_row("eAUSF container", ca.stable_us, "us");
  bench::print_dist_row("eAMF  container", cm.stable_us, "us");
  bench::print_dist_row("eUDM  SGX", su.stable_us, "us");
  bench::print_dist_row("eAUSF SGX", sa.stable_us, "us");
  bench::print_dist_row("eAMF  SGX", sm.stable_us, "us");

  bench::subheading("(b) initial response latency R_I (SGX)");
  bench::print_dist_row("eUDM  SGX", su.initial_ms, "ms");
  bench::print_dist_row("eAUSF SGX", sa.initial_ms, "ms");
  bench::print_dist_row("eAMF  SGX", sm.initial_ms, "ms");

  bench::subheading("ratios");
  bench::print_kv("eUDM  R_S ratio (SGX/container)",
                  su.stable_us.median() / cu.stable_us.median(), "x");
  bench::print_kv("eAUSF R_S ratio",
                  sa.stable_us.median() / ca.stable_us.median(), "x");
  bench::print_kv("eAMF  R_S ratio",
                  sm.stable_us.median() / cm.stable_us.median(), "x");
  bench::print_kv("eUDM  R_I / R_S",
                  su.initial_ms.median() * 1'000 / su.stable_us.median(),
                  "x");
  bench::print_kv("eAUSF R_I / R_S",
                  sa.initial_ms.median() * 1'000 / sa.stable_us.median(),
                  "x");
  bench::print_kv("eAMF  R_I / R_S",
                  sm.initial_ms.median() * 1'000 / sm.stable_us.median(),
                  "x");
  bench::paper_row("R_S ratios", "2.2 (eUDM), 2.5 (eAUSF), 2.9 (eAMF)");
  bench::paper_row("R_I / R_S", "19.04, 18.37, 21.42 (~20x)");
  bench::paper_row("R_I band", "22.0-23.6 ms across the modules");
  return 0;
}
