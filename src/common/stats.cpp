#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "common/thread_annotations.h"
#include <stdexcept>

namespace shield5g {

namespace {

// The registry is sharded by name hash: parallel shard workers bump
// counters concurrently (declassify audits, queue sheds), and a single
// process-wide lock would serialize them. Sixteen independently locked
// sub-maps cut that contention 16x while keeping the aggregate
// deterministic — snapshot() merges shard-by-shard into one sorted map,
// so the merged view is independent of which worker bumped what.
constexpr std::size_t kCounterShards = 16;

struct CounterShard {
  std::mutex mutex;
  // std::less<> finds a name by view, without building a std::string.
  std::map<std::string, std::uint64_t, std::less<>> counters
      SHIELD_GUARDED_BY(mutex);
};

CounterShard* counter_shards() {
  // Heap-allocated, never freed: counter_add must stay callable from
  // thread-exit paths after static teardown.
  static CounterShard* shards = new CounterShard[kCounterShards];
  return shards;
}

std::size_t shard_index(std::string_view name) noexcept {
  // FNV-1a over the name; the low bits pick the shard.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h % kCounterShards);
}

// The named counter, created at zero on its first use: the only time
// its name is copied.
std::uint64_t& counter_slot(CounterShard& shard, std::string_view name)
    SHIELD_REQUIRES(shard.mutex) {
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) it = shard.counters.emplace(name, 0).first;
  return it->second;
}

}  // namespace

void counter_add(std::string_view name, std::uint64_t delta) noexcept {
  try {
    CounterShard& shard = counter_shards()[shard_index(name)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    counter_slot(shard, name) += delta;
  } catch (...) {
    // Allocation failure while accounting must not take down a request.
  }
}

void counter_max(std::string_view name, std::uint64_t value) noexcept {
  try {
    CounterShard& shard = counter_shards()[shard_index(name)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::uint64_t& slot = counter_slot(shard, name);
    if (value > slot) slot = value;
  } catch (...) {
    // Allocation failure while accounting must not take down a request.
  }
}

std::uint64_t counter_value(std::string_view name) noexcept {
  CounterShard& shard = counter_shards()[shard_index(name)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.counters.find(name);
  return it == shard.counters.end() ? 0 : it->second;
}

void counters_reset() noexcept {
  for (std::size_t s = 0; s < kCounterShards; ++s) {
    CounterShard& shard = counter_shards()[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters.clear();
  }
}

std::map<std::string, std::uint64_t> counters_snapshot() {
  std::map<std::string, std::uint64_t> merged;
  for (std::size_t s = 0; s < kCounterShards; ++s) {
    CounterShard& shard = counter_shards()[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, value] : shard.counters) merged[name] += value;
  }
  return merged;
}

double Samples::mean() const {
  if (values_.empty()) throw std::logic_error("Samples::mean: empty");
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  if (values_.empty()) throw std::logic_error("Samples::min: empty");
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) throw std::logic_error("Samples::max: empty");
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double p) const {
  if (values_.empty()) throw std::logic_error("Samples::percentile: empty");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile out of range");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary Summary::of(const Samples& s) {
  Summary out;
  out.count = s.count();
  if (out.count == 0) return out;
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.p25 = s.p25();
  out.median = s.median();
  out.p75 = s.p75();
  out.max = s.max();
  return out;
}

std::string Summary::to_string(const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.2f%s p50=%.2f%s iqr=[%.2f, %.2f] "
                "range=[%.2f, %.2f]",
                count, mean, unit.c_str(), median, unit.c_str(), p25, p75,
                min, max);
  return buf;
}

}  // namespace shield5g
