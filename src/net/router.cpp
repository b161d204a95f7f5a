#include "net/router.h"

#include <stdexcept>

namespace shield5g::net {

namespace {

// Deepest SBI template is 6 segments; anything deeper cannot match any
// registered route.
constexpr std::size_t kMaxSegments = 8;

// Splits on '/' into caller-provided views; returns the segment count,
// or kMaxSegments + 1 on overflow.
std::size_t split_view(std::string_view path, std::string_view* out) {
  std::size_t n = 0;
  while (!path.empty()) {
    const std::size_t slash = path.find('/');
    const std::string_view seg =
        slash == std::string_view::npos ? path : path.substr(0, slash);
    path = slash == std::string_view::npos ? std::string_view()
                                           : path.substr(slash + 1);
    if (seg.empty()) continue;
    if (n == kMaxSegments) return kMaxSegments + 1;
    out[n++] = seg;
  }
  return n;
}

}  // namespace

const std::string& PathParams::at(std::string_view key) const {
  for (std::size_t i = 0; i < count_; ++i) {
    if (items_[i].key == key) return items_[i].value;
  }
  throw std::out_of_range("PathParams::at: no such parameter");
}

bool PathParams::contains(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < count_; ++i) {
    if (items_[i].key == key) return true;
  }
  return false;
}

void PathParams::add(std::string_view key, std::string_view value) {
  if (count_ == kMax) {
    throw std::length_error("PathParams::add: too many parameters");
  }
  items_[count_].key = key;
  items_[count_].value.assign(value);
  ++count_;
}

void Router::add(Method method, const std::string& path_template,
                 Handler handler) {
  routes_.push_back(Route{method, split(path_template), std::move(handler)});
}

std::vector<std::string> Router::split(const std::string& path) {
  std::vector<std::string> out;
  std::string segment;
  for (char c : path) {
    if (c == '/') {
      if (!segment.empty()) out.push_back(std::move(segment));
      segment.clear();
    } else {
      segment.push_back(c);
    }
  }
  if (!segment.empty()) out.push_back(std::move(segment));
  return out;
}

bool Router::match(const Route& route, const std::string_view* segments,
                   std::size_t count, PathParams& params) {
  if (route.segments.size() != count) return false;
  params.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& tmpl = route.segments[i];
    if (!tmpl.empty() && tmpl.front() == ':') {
      params.add(std::string_view(tmpl).substr(1), segments[i]);
    } else if (tmpl != segments[i]) {
      return false;
    }
  }
  return true;
}

HttpResponse Router::route(const RequestView& req) const {
  std::string_view segments[kMaxSegments];
  const std::size_t count = split_view(req.path, segments);
  bool path_matched = false;
  if (count <= kMaxSegments) {
    PathParams params;
    for (const Route& route : routes_) {
      if (match(route, segments, count, params)) {
        if (route.method == req.method) {
          return route.handler(req, params);
        }
        path_matched = true;
      }
    }
  }
  if (path_matched) return HttpResponse::error(405, "method not allowed");
  std::string detail = "no route: ";
  detail += req.path;
  return HttpResponse::error(404, detail);
}

}  // namespace shield5g::net
