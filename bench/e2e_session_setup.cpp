// E2E — End-to-end UE session setup across deployment modes
// (paper §V-B4): registration + PDU session establishment, measured at
// the UE, for monolithic, container-isolated and SGX-isolated AKA.
#include "bench/bench_util.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

Samples run_mode(slice::IsolationMode mode, int regs) {
  slice::SliceConfig cfg;
  cfg.mode = mode;
  cfg.subscriber_count = static_cast<std::uint32_t>(regs + 1);
  slice::Slice s(cfg);
  s.create();
  s.register_subscriber(0, true);  // absorb cold paths
  Samples setup;
  for (int i = 1; i <= regs; ++i) {
    const auto result =
        s.register_subscriber(static_cast<std::uint32_t>(i), true);
    if (!result.session_up) {
      std::fprintf(stderr, "registration %d failed!\n", i);
      continue;
    }
    setup.add(sim::to_ms(result.setup_time));
  }
  return setup;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 200, bench::Args::kCount);
  bench::heading("E2E: UE session setup latency (registration + PDU session)");
  std::printf("  %d registrations per mode via gNBSIM\n", n);

  const Samples mono = run_mode(slice::IsolationMode::kMonolithic, n);
  const Samples cont = run_mode(slice::IsolationMode::kContainer, n);
  const Samples sgx = run_mode(slice::IsolationMode::kSgx, n);

  bench::print_dist_row("monolithic AKA", mono, "ms");
  bench::print_dist_row("container P-AKA", cont, "ms");
  bench::print_dist_row("SGX P-AKA", sgx, "ms");

  bench::subheading("overhead attribution");
  bench::print_kv("container vs monolithic delta",
                  cont.mean() - mono.mean(), "ms");
  bench::print_kv("SGX vs container delta (cumulative SGX delay)",
                  sgx.mean() - cont.mean(), "ms");
  bench::print_kv("SGX share of the SGX-mode setup",
                  (sgx.mean() - cont.mean()) / sgx.mean() * 100.0, "%");
  bench::paper_row("end-to-end setup", "62.38 ms");
  bench::paper_row("container vs monolithic", "negligible difference");
  bench::paper_row("SGX delay", "3.48 ms = 5.58% of the setup");
  return 0;
}
