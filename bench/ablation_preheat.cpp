// ABLATION — sgx.preheat_enclave (paper §IV-C / §V-B1).
//
// Preheat pre-faults all heap pages during initialization: the enclave
// loads much slower but steady-state requests avoid EPC faults. This
// bench measures both sides of that trade on the eUDM module.
#include "bench/bench_util.h"
#include "bench/paka_harness.h"

using namespace shield5g;

namespace {

void run(bool preheat, int n) {
  paka::PakaOptions opts;
  opts.isolation = paka::Isolation::kSgx;
  opts.preheat = preheat;
  bench::ModuleBench<paka::EudmAkaService> mb(opts);
  const sim::Nanos load = mb.deploy();

  const auto req = bench::eudm_request();
  const auto first = mb.request(req);
  Samples stable;
  for (int i = 0; i < n; ++i) {
    stable.add(sim::to_us(mb.request(req).response_ns));
  }
  bench::subheading(preheat ? "preheat enabled (paper configuration)"
                            : "preheat disabled");
  bench::print_kv("enclave load time", sim::to_s(load), "s");
  bench::print_kv("initial response R_I", sim::to_ms(first.response_ns),
                  "ms");
  bench::print_dist_row("stable response R_S", stable, "us");
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 300, bench::Args::kCount);
  bench::heading("ABLATION: sgx.preheat_enclave on the eUDM module");
  run(true, n);
  run(false, n);
  bench::print_note(
      "preheat shifts EPC page-fault cost from the first requests into "
      "the load phase - the right trade for a long-lived AKA server, the "
      "wrong one for frequently-redeployed ephemeral services (§V-B1)");
  return 0;
}
