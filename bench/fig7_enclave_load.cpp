// FIG7 — Enclave load time for the P-AKA modules (paper Fig. 7).
//
// Repeatedly deploys each GSC-built module into a fresh enclave (preheat
// enabled, 512 MB EPC, 4 threads — the paper's configuration) and
// reports the load-time distribution in minutes. Paper: all three
// modules take close to a minute (~0.955-0.99 min), with eUDM the
// slowest (largest application layer).
#include "bench/bench_util.h"
#include "net/bus.h"
#include "paka/aka_amf.h"
#include "paka/aka_ausf.h"
#include "paka/aka_udm.h"
#include "sgx/machine.h"

using namespace shield5g;

namespace {

template <typename Service>
Samples measure_loads(const std::string& name, int iterations) {
  Samples minutes;
  for (int i = 0; i < iterations; ++i) {
    sim::VirtualClock clock;
    sgx::Machine machine(clock, 0x716e + static_cast<std::uint64_t>(i));
    net::Bus bus(clock, 0xb05 + static_cast<std::uint64_t>(i));
    paka::PakaOptions opts;  // defaults: SGX, 512 MB, 4 threads, preheat
    Service service(machine, bus, opts, name);
    const sim::Nanos load = service.deploy();
    minutes.add(sim::to_s(load) / 60.0);
  }
  return minutes;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 50, bench::Args::kCount);
  bench::heading("FIG 7: enclave load time of the P-AKA modules");
  std::printf("  config: sgx.preheat_enclave=true, 512MB EPC, "
              "4 threads, %d deployments per module\n", n);

  const Samples eudm = measure_loads<paka::EudmAkaService>("eudm-aka", n);
  const Samples eausf = measure_loads<paka::EausfAkaService>("eausf-aka", n);
  const Samples eamf = measure_loads<paka::EamfAkaService>("eamf-aka", n);

  bench::print_dist_row("eUDM  load", eudm, "min");
  bench::print_dist_row("eAUSF load", eausf, "min");
  bench::print_dist_row("eAMF  load", eamf, "min");
  bench::paper_row("enclave load time",
                   "~0.955-0.99 min for all three modules, eUDM slowest");
  bench::print_note(
      "cost composition: EADD+EEXTEND of all enclave pages + trusted-file "
      "verification + several hundred init OCALLs + preheat page faults");
  return 0;
}
