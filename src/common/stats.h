// Sample statistics for latency characterization: the paper reports box
// plots (median / interquartile range) and means, so Summary captures both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace shield5g {

// ---------------------------------------------------------------------
// Process-wide named monotonic counters.
//
// Used for auditing events that must be *countable* from tests and CI
// rather than logged — most importantly every SecretBytes::declassify
// (common/secret.h) keyed as secret.declassify.<reason>.{shielded,host}
// plus secret.declassify.denied for gate violations, and the NGAP-edge
// queue.shed drop audit. Thread-safe and sharded by name hash: the
// shard runner (sim/shards.h) bumps counters from many host workers
// concurrently, so the registry is split over sixteen
// independently locked sub-maps; snapshots merge them into one sorted,
// worker-count-independent view. A counter's first bump copies its
// name; later bumps look it up as a view and build no string.
// ---------------------------------------------------------------------

/// Adds `delta` to the named counter (creating it at zero).
void counter_add(std::string_view name, std::uint64_t delta = 1) noexcept;

/// Raises the named counter to `value` if it is currently lower
/// (high-water marks, e.g. scheduler.events.peak). Never lowers it.
void counter_max(std::string_view name, std::uint64_t value) noexcept;

/// Current value; 0 for a counter never touched.
std::uint64_t counter_value(std::string_view name) noexcept;

/// Clears every counter (tests isolate themselves with this).
void counters_reset() noexcept;

/// Snapshot of all counters, sorted by name.
std::map<std::string, std::uint64_t> counters_snapshot();

/// Accumulates raw samples and computes order statistics on demand.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void clear() { values_.clear(); }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile; p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double p25() const { return percentile(25.0); }
  double p75() const { return percentile(75.0); }
  double iqr() const { return p75() - p25(); }

  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

/// Immutable five-number-style summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0, stddev = 0, min = 0, p25 = 0, median = 0, p75 = 0, max = 0;

  static Summary of(const Samples& s);
  /// One-line rendering, e.g. "n=500 mean=38.1 p50=37.9 iqr=[36.8,39.2]".
  std::string to_string(const std::string& unit = "") const;
};

}  // namespace shield5g
