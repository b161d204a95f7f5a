// TAB5 — Key Issues summary (paper Table V): which of the 3GPP TR 33.848
// virtualisation key issues HMEE resolves, regenerated from the property
// mapping engine rather than transcribed.
#include <cstdio>

#include "bench/bench_util.h"
#include "ki/key_issues.h"

using namespace shield5g;

int main(int argc, char** argv) {
  bench::check_args(argc, argv, bench::Args::kNone);
  bench::heading("TABLE V: key-issue summary (TR 33.848 vs HMEE)");
  std::printf("\n  %-4s %-45s %-10s %s\n", "KI#", "Description",
              "3GPP-HMEE", "Solution");
  for (const auto& row : ki::generate_table()) {
    std::printf("  %-4d %-45s %-10s %s\n", row.ki, row.description.c_str(),
                row.threegpp_hmee ? "yes" : "-",
                ki::verdict_symbol(row.verdict));
  }

  const auto summary = ki::summarize(ki::generate_table());
  bench::subheading("summary");
  bench::print_kv("KIs where 3GPP itself recommends HMEE",
                  summary.threegpp_marked, "");
  bench::print_kv("additional KIs mitigated (paper's contribution)",
                  summary.additional_beyond_3gpp, "");
  bench::print_kv("fully resolved", summary.full, "");
  bench::print_kv("partially resolved", summary.partial, "");
  bench::paper_row("3GPP-marked KIs", "6, 7, 15, 25");
  bench::paper_row("full solutions beyond 3GPP", "2, 13, 27");
  bench::paper_row("partial solutions", "5, 11, 12, 20, 21, 26");

  bench::subheading("HMEE properties relied upon per KI");
  for (const auto& issue : ki::catalogue()) {
    std::printf("  KI %-3d:", issue.number);
    for (const auto property : issue.relevant) {
      std::printf(" %s", ki::property_name(property));
    }
    std::printf("\n");
  }
  return 0;
}
