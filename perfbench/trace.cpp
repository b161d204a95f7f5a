#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench::trace {

namespace {

bool g_enabled = false;
std::vector<Span> g_spans;
std::int32_t g_open = -1;  // innermost open span (spans are recorded on
                           // the benchmark thread only)

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void write_escaped(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

void set_enabled(bool on) noexcept { g_enabled = on; }
bool enabled() noexcept { return g_enabled; }
const std::vector<Span>& spans() noexcept { return g_spans; }

Scoped::Scoped(const char* name, std::string id) {
  if (!g_enabled) return;
  index_ = static_cast<std::int32_t>(g_spans.size());
  saved_parent_ = g_open;
  g_spans.push_back(Span{name, now_ns(), 0, g_open, std::move(id)});
  g_open = index_;
}

Scoped::~Scoped() {
  if (index_ < 0) return;
  g_spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  g_open = saved_parent_;
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t origin = g_spans.empty() ? 0 : g_spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":\"",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent));
    write_escaped(f, s.id);
    std::fputs("\"}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
