// ABLATION — Gramine's exitless (switchless-OCALL) feature, which the
// paper lists as a future optimization (§V-B7): an untrusted helper
// thread services OCALLs so the enclave thread never transitions.
#include "bench/bench_util.h"
#include "bench/paka_harness.h"

using namespace shield5g;

namespace {

void run(bool exitless, int n) {
  paka::PakaOptions opts;
  opts.isolation = paka::Isolation::kSgx;
  opts.exitless = exitless;
  bench::ModuleBench<paka::EudmAkaService> mb(opts);
  mb.deploy();

  const auto req = bench::eudm_request();
  mb.request(req);
  mb.service->server().reset_stats();
  const auto before = *mb.service->sgx_counters();
  Samples stable;
  for (int i = 0; i < n; ++i) {
    stable.add(sim::to_us(mb.request(req).response_ns));
  }
  const auto delta = *mb.service->sgx_counters() - before;

  bench::subheading(exitless ? "exitless OCALLs (rpc helper threads)"
                             : "regular OCALLs (paper configuration)");
  bench::print_dist_row("stable response R_S", stable, "us");
  bench::print_dist_row("L_T", mb.service->server().lt_us(), "us");
  bench::print_kv("EENTER per request",
                  static_cast<double>(delta.eenter) / n, "");
  bench::print_kv("EEXIT per request",
                  static_cast<double>(delta.eexit) / n, "");
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 300, bench::Args::kCount);
  bench::heading("ABLATION: exitless OCALLs on the eUDM module (§V-B7)");
  run(false, n);
  run(true, n);
  bench::print_note(
      "exitless removes the 10k-18k-cycle transitions from the request "
      "path but pins helper threads and is flagged insecure for "
      "production by Gramine - the paper leaves it disabled");
  return 0;
}
