// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around calls into
// each layer's public entry points: name, start, end, parent span and a
// case/UE id. They stay in memory and are written to one Chrome
// trace-event JSON file at exit (open it in Perfetto or
// chrome://tracing). Recording is off unless enabled, so untraced runs
// pay one branch per span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 at the root
  std::string id;            // case or UE id shared by related spans
};

void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Every span recorded so far, in begin order.
const std::vector<Span>& spans() noexcept;

/// Writes the spans as Chrome trace events; false on an I/O error.
bool write(const std::string& path);

/// RAII span; nests under the innermost open span of this thread.
class Scoped {
 public:
  Scoped(const char* name, std::string id);
  ~Scoped();

  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::int32_t index_ = -1;
  std::int32_t saved_parent_ = -1;
};

}  // namespace perfbench::trace
