// Shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one table or figure of the paper and
// prints (a) the measured series and (b) the paper's reported values for
// side-by-side comparison. Iteration counts default to paper-faithful
// values but can be reduced via argv[1] for quick runs.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/stats.h"
#include "json/json.h"

namespace shield5g::bench {

/// The arguments a paper bench takes: none, an optional iteration count,
/// or for load_curve an optional output path after the count.
enum class Args { kNone, kCount, kCountAndOutput };

/// Prints the usage line for what the bench takes and exits 2.
[[noreturn]] inline void usage(char** argv, Args takes) {
  if (takes == Args::kNone) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
  } else {
    std::fprintf(stderr, "usage: %s [iterations 1..%d]%s\n", argv[0], INT_MAX,
                 takes == Args::kCountAndOutput ? " [out.json]" : "");
  }
  std::exit(2);
}

/// Exits through usage() when given more arguments than `takes` allows,
/// instead of silently ignoring them.
inline void check_args(int argc, char** argv, Args takes) {
  const int max_args = takes == Args::kNone    ? 0
                       : takes == Args::kCount ? 1
                                               : 2;
  if (argc > 1 + max_args) usage(argv, takes);
}

/// Parses the iteration count: argv[1] if given, else `def`. The count
/// is plain decimal digits with a value from 1 to INT_MAX; anything else
/// ("2x", "0", "+3", "-3", " 3", "4294967297"), or more arguments than
/// `takes` allows, prints a usage line and exits 2 instead of silently
/// running some other count or ignoring an argument.
inline int iterations(int argc, char** argv, int def, Args takes) {
  check_args(argc, argv, takes);
  if (argc < 2) return def;
  const char* s = argv[1];
  int n = 0;
  bool ok = *s != '\0';
  for (; ok && *s != '\0'; ++s) {
    const int digit = *s - '0';
    ok = digit >= 0 && digit <= 9 && n <= (INT_MAX - digit) / 10;
    if (ok) n = n * 10 + digit;
  }
  if (!ok || n == 0) usage(argv, takes);
  return n;
}

/// Writes `doc` to `path` as one line of JSON. On a write error it
/// prints which file failed and returns false.
inline bool write_json(const std::string& path, const json::Value& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump() << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("--- %s ---\n", title.c_str());
}

/// Box-plot-style row: median [p25, p75] (min..max), n.
inline void print_dist_row(const std::string& label, const Samples& s,
                           const char* unit) {
  const Summary sum = Summary::of(s);
  std::printf("  %-22s p50=%9.2f %-3s iqr=[%9.2f, %9.2f] "
              "range=[%9.2f, %9.2f] n=%zu\n",
              label.c_str(), sum.median, unit, sum.p25, sum.p75, sum.min,
              sum.max, sum.count);
}

inline void print_kv(const std::string& key, double value,
                     const char* unit) {
  std::printf("  %-38s %10.3f %s\n", key.c_str(), value, unit);
}

inline void print_note(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

inline void paper_row(const std::string& what, const std::string& value) {
  std::printf("  paper: %-30s %s\n", what.c_str(), value.c_str());
}

}  // namespace shield5g::bench
