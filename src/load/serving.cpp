#include "load/serving.h"

#include <cstdio>
#include <utility>

#include "nf/subscriber_store.h"
#include "sim/shards.h"

namespace shield5g::load {

namespace {

/// Golden-ratio mix so per-slot seed domains never collide with the
/// slice's own derived streams (0xc4ed credentials, 0xa221 arrivals...).
std::uint64_t slot_mix(std::uint64_t seed, std::uint32_t slot) noexcept {
  return seed ^ (0x517eBA5EULL + 0x9e3779b97f4a7c15ULL *
                                     (static_cast<std::uint64_t>(slot) + 1));
}

}  // namespace

std::uint32_t home_slot(std::string_view supi, std::uint32_t slots) noexcept {
  return static_cast<std::uint32_t>(nf::supi_hash(supi) % slots);
}

ServingReport run_serving(const ServingConfig& config, unsigned shards) {
  unsigned workers = sim::shard_workers(shards);
  if (workers > kServingSlots) workers = kServingSlots;

  // One global arrival schedule (same domain separation as the
  // open-loop engine); arrival i belongs to global id i.
  Rng arrivals_rng(config.seed ^ 0xa221ULL);
  const std::vector<sim::Nanos> schedule =
      arrival_schedule(config.arrivals, config.ue_count, arrivals_rng);

  // ---- Partition (before any thread runs, so it cannot depend on the
  // execution width): one case per home slot. A global id joins its
  // slot by SUPI hash; its local index is its rank within the slot's
  // ascending-id population, and its arrivals stay in gid order. -------
  std::vector<SweepCase> cases(kServingSlots);
  for (std::uint32_t slot = 0; slot < kServingSlots; ++slot) {
    SweepCase& c = cases[slot];
    char label[32];
    std::snprintf(label, sizeof(label), "slot=%u", slot);
    c.label = label;
    c.slice = config.slice;
    c.slice.population.clear();
    c.slice.seed = slot_mix(config.slice.seed, slot);
    c.load.arrivals = config.arrivals;
    c.load.with_pdu = config.with_pdu;
    c.load.record_trace = config.record_trace;
    c.load.seed = slot_mix(config.seed, slot);
  }
  for (std::uint32_t gid = 0; gid < config.ue_count; ++gid) {
    char msin[16];
    std::snprintf(msin, sizeof(msin), "%010u", 100000000u + gid);
    const nf::Supi supi = nf::Supi::from_parts(config.slice.plmn, msin);
    SweepCase& c = cases[home_slot(supi.value, kServingSlots)];
    const auto local = static_cast<std::uint32_t>(c.slice.population.size());
    c.slice.population.push_back(gid);
    c.arrivals.push_back(Arrival{local, schedule[gid]});
  }
  for (SweepCase& c : cases) {
    c.slice.subscriber_count =
        static_cast<std::uint32_t>(c.slice.population.size());
    // An empty slot has no arrivals to replay: run_case then draws a
    // schedule of ue_count = 0 UEs, so the slot still serves nobody.
    c.load.ue_count = static_cast<std::uint32_t>(c.arrivals.size());
  }

  // ---- Run: job w serves slots {s : s % workers == w} in ascending
  // order (perfbench attributes per-worker busy time by this map).
  // Results land at disjoint indices, so they need no lock; run_shards
  // rethrows the first slot error once every job has finished. -------
  std::vector<SweepResult> results(kServingSlots);
  sim::run_shards(workers, workers, [&](std::size_t w) {
    for (std::size_t s = w; s < kServingSlots; s += workers) {
      results[s] = run_case(cases[s]);
    }
  });

  ServingReport report;
  report.shards = workers;
  for (const SweepResult& r : results) {
    report.completed += r.report.completed;
    report.registered += r.report.registered;
    report.sessions_up += r.report.sessions_up;
    report.failed += r.report.failed;
    report.failed_shed += r.report.failed_shed;
    report.failed_error += r.report.failed_error;
    report.shed += r.shed;
    report.fastpath_hits += r.fastpath_hits;
  }
  // The merge: slot order, same digest machinery as run_sweep — this is
  // what Determinism.ServingPlaneDigestIdenticalAcrossShardCounts
  // byte-compares across shard counts.
  report.digest = sweep_digest(results);
  report.digest_lines = sweep_digest_lines(results);
  report.slots = std::move(results);
  return report;
}

}  // namespace shield5g::load
