// ABLATION — horizontal scaling of the enclave worker pool
// (paper §V-B7: "since our design is microservice-based, it inherently
// supports horizontal scaling ... operators can scale the enclave worker
// nodes and SGX-capable host pools on demand").
//
// Deploys 1..4 eUDM replicas and reports the costs that grow with the
// pool (slice creation time, committed EPC) against the capacity gained
// (authentication vectors per second at the measured stable response
// time), while per-request latency stays flat.
#include "bench/bench_util.h"
#include "slice/slice.h"

using namespace shield5g;

int main(int argc, char** argv) {
  const int regs = bench::iterations(argc, argv, 40, bench::Args::kCount);
  bench::heading("ABLATION: eUDM replica pool scaling (paper §V-B7)");
  std::printf("  %d registrations per configuration\n\n", regs);
  std::printf("  %-9s %12s %10s %12s %14s %14s\n", "replicas",
              "creation(s)", "EPC(GB)", "R_S p50(us)", "per-replica n",
              "est. AV/s");

  for (std::uint32_t replicas = 1; replicas <= 4; ++replicas) {
    slice::SliceConfig cfg;
    cfg.mode = slice::IsolationMode::kSgx;
    cfg.eudm_replicas = replicas;
    cfg.subscriber_count = static_cast<std::uint32_t>(regs + replicas);
    slice::Slice s(cfg);
    const auto creation = s.create();

    // Warm every replica's cold path (round-robin guarantees coverage).
    for (std::uint32_t i = 0; i < replicas; ++i) {
      s.register_subscriber(i, false);
    }
    Samples lt;
    std::uint64_t served_min = ~0ULL, served_max = 0;
    for (auto& replica : s.eudm_replicas()) replica->server().reset_stats();
    for (int i = 0; i < regs; ++i) {
      s.register_subscriber(static_cast<std::uint32_t>(replicas + i),
                            false);
    }
    for (auto& replica : s.eudm_replicas()) {
      for (double v : replica->server().lt_us().values()) lt.add(v);
      served_min = std::min(served_min, replica->server().requests_served());
      served_max = std::max(served_max, replica->server().requests_served());
    }
    // Capacity estimate: each replica is single-threaded, so the pool
    // sustains replicas / R_S vectors per second.
    const double rs_us = lt.median() + 1'280;  // + client/bridge path
    const double av_per_s = replicas * 1e6 / rs_us;
    std::printf("  %-9u %12.1f %10.1f %12.2f %7llu..%-6llu %14.0f\n",
                replicas, sim::to_s(creation.total),
                static_cast<double>(s.machine().epc().used_bytes()) /
                    static_cast<double>(1ULL << 30),
                lt.median(),
                static_cast<unsigned long long>(served_min),
                static_cast<unsigned long long>(served_max), av_per_s);
  }
  bench::print_note(
      "creation time and EPC commitment grow linearly with the pool; "
      "per-request latency is flat; round-robin spreads load evenly "
      "(per-replica n). Capacity scales with the worker count.");
  return 0;
}
