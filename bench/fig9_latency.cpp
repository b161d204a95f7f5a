// FIG9 — Functional (L_F) and total (L_T) latency of the three P-AKA
// modules under container vs SGX isolation (paper Fig. 9, feeding the
// L_F/L_T columns of Table II).
//
// Measured in situ: full UE registrations run through the slice, so the
// modules see exactly the traffic their parent VNFs generate.
#include "bench/bench_util.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

struct ModuleSeries {
  Samples lf, lt;
};

struct ModeResult {
  ModuleSeries eudm, eausf, eamf;
};

ModeResult run_mode(slice::IsolationMode mode, int registrations) {
  slice::SliceConfig cfg;
  cfg.mode = mode;
  cfg.subscriber_count = static_cast<std::uint32_t>(registrations + 1);
  slice::Slice s(cfg);
  s.create();
  s.register_subscriber(0, true);  // cold paths out of the way
  for (auto* module :
       {static_cast<paka::PakaService*>(s.eudm()),
        static_cast<paka::PakaService*>(s.eausf()),
        static_cast<paka::PakaService*>(s.eamf())}) {
    module->server().reset_stats();
  }
  for (int i = 1; i <= registrations; ++i) {
    s.register_subscriber(static_cast<std::uint32_t>(i), true);
  }
  ModeResult result;
  result.eudm = {s.eudm()->server().lf_us(), s.eudm()->server().lt_us()};
  result.eausf = {s.eausf()->server().lf_us(), s.eausf()->server().lt_us()};
  result.eamf = {s.eamf()->server().lf_us(), s.eamf()->server().lt_us()};
  return result;
}

void print_mode(const char* label, const ModeResult& r) {
  bench::subheading(label);
  bench::print_dist_row("eUDM  L_F", r.eudm.lf, "us");
  bench::print_dist_row("eAUSF L_F", r.eausf.lf, "us");
  bench::print_dist_row("eAMF  L_F", r.eamf.lf, "us");
  bench::print_dist_row("eUDM  L_T", r.eudm.lt, "us");
  bench::print_dist_row("eAUSF L_T", r.eausf.lt, "us");
  bench::print_dist_row("eAMF  L_T", r.eamf.lt, "us");
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 500, bench::Args::kCount);
  bench::heading("FIG 9: functional and total latency of the P-AKA modules");
  std::printf("  %d UE registrations per isolation mode\n", n);

  const ModeResult container = run_mode(slice::IsolationMode::kContainer, n);
  const ModeResult sgx = run_mode(slice::IsolationMode::kSgx, n);
  print_mode("Container isolation", container);
  print_mode("SGX isolation", sgx);

  bench::subheading("SGX / container ratios (medians)");
  bench::print_kv("eUDM  L_F ratio",
                  sgx.eudm.lf.median() / container.eudm.lf.median(), "x");
  bench::print_kv("eAUSF L_F ratio",
                  sgx.eausf.lf.median() / container.eausf.lf.median(), "x");
  bench::print_kv("eAMF  L_F ratio",
                  sgx.eamf.lf.median() / container.eamf.lf.median(), "x");
  bench::print_kv("eUDM  L_T ratio",
                  sgx.eudm.lt.median() / container.eudm.lt.median(), "x");
  bench::print_kv("eAUSF L_T ratio",
                  sgx.eausf.lt.median() / container.eausf.lt.median(), "x");
  bench::print_kv("eAMF  L_T ratio",
                  sgx.eamf.lt.median() / container.eamf.lt.median(), "x");
  bench::paper_row("L_F ratios", "1.2 (eUDM), 1.3 (eAUSF), 1.5 (eAMF)");
  bench::paper_row("L_T ratios", "1.86, 2.15, 2.43");
  bench::paper_row("ordering", "eUDM exchanges the most bytes and has the "
                   "highest latency, then eAUSF, then eAMF");
  return 0;
}
