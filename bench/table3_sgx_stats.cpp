// TAB3 — SGX-specific operational statistics for the P-AKA modules
// (paper Table III).
//
// Registers 1..10 UEs back to back against an SGX slice and reports the
// cumulative EENTER/EEXIT/AEX counters of each module after each UE,
// plus the per-UE difference and the empty-GSC-workload baseline.
#include "bench/bench_util.h"
#include "libos/gsc.h"
#include "libos/runtime.h"
#include "slice/slice.h"

using namespace shield5g;

int main(int argc, char** argv) {
  const int max_ues =
      std::min(10, bench::iterations(argc, argv, 10, bench::Args::kCount));
  bench::heading("TABLE III: SGX operational statistics (EENTER/EEXIT/AEX)");

  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kSgx;
  cfg.subscriber_count = static_cast<std::uint32_t>(max_ues);
  slice::Slice s(cfg);
  s.create();

  struct Row {
    int ues;
    sgx::TransitionCounters eudm, eausf, eamf;
  };
  std::vector<Row> rows;
  for (int ue = 0; ue < max_ues; ++ue) {
    s.register_subscriber(static_cast<std::uint32_t>(ue), true);
    rows.push_back(Row{ue + 1, *s.eudm()->sgx_counters(),
                       *s.eausf()->sgx_counters(),
                       *s.eamf()->sgx_counters()});
  }

  std::printf("\n  %-8s %6s %10s %10s %10s\n", "Module", "#UEs", "EENTERs",
              "EEXITs", "AEXs");
  auto print_module = [&rows](const char* name,
                              sgx::TransitionCounters Row::*member) {
    for (const auto& row : rows) {
      if (row.ues > 3) continue;  // the paper prints up to 3 "for brevity"
      const auto& c = row.*member;
      std::printf("  %-8s %6d %10llu %10llu %10llu\n", name, row.ues,
                  static_cast<unsigned long long>(c.eenter),
                  static_cast<unsigned long long>(c.eexit),
                  static_cast<unsigned long long>(c.aex));
    }
  };
  print_module("eUDM", &Row::eudm);
  print_module("eAUSF", &Row::eausf);
  print_module("eAMF", &Row::eamf);

  bench::subheading("per-UE deltas (diff of consecutive registrations)");
  Samples deltas;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    deltas.add(static_cast<double>(
        (rows[i].eudm - rows[i - 1].eudm).eenter));
  }
  bench::print_dist_row("eUDM EENTERs per UE", deltas, "");
  bench::print_note(
      "AEX accrues with enclave lifetime (timer interrupts), not with "
      "workload: eUDM boots first and shows the largest count; the "
      "registration itself adds only its page-fault AEXs");
  bench::paper_row("per-UE EENTERs/EEXITs", "~90 each (diff of consecutive "
                   "registrations up to ten UEs)");
  bench::paper_row("AEX", "~140k, independent of the number of UEs");
  bench::paper_row("1 UE totals (eUDM)", "1508 EENTERs / 1414 EEXITs");

  bench::subheading("empty GSC workload (cost of the shim alone)");
  {
    sim::VirtualClock clock;
    sgx::Machine machine(clock);
    libos::GscBuildOptions build;
    const Bytes signer(32, 0x11);
    libos::GramineRuntime runtime(
        machine, libos::gsc_build("empty-workload", build, signer));
    runtime.boot();
    const auto& c = runtime.counters();
    std::printf("  empty workload: EENTERs %llu  EEXITs %llu  AEXs %llu\n",
                static_cast<unsigned long long>(c.eenter),
                static_cast<unsigned long long>(c.eexit),
                static_cast<unsigned long long>(c.aex));
    bench::paper_row("empty workload", "762 EENTERs / 680 EEXITs / "
                     "49,674 AEXs");
    bench::print_note(
        "Pistache-server deployment adds ~650 transitions over the empty "
        "workload (paper §V-B5); transitions occur only on network I/O, "
        "not on the in-enclave AKA computation");
  }
  return 0;
}
