// REST router (the Pistache-endpoint analogue).
//
// Each P-AKA function / SBI operation is mapped to an endpoint handler,
// exactly as the paper describes ("the modules expose REST API endpoints
// where each AKA function is mapped to an endpoint handler"). Path
// templates support `:param` segments (e.g. "/nudm-ueau/v1/:supi/...").
//
// Handlers receive the zero-copy RequestView (path/headers/body alias
// the decrypted record buffer) plus flat PathParams; dispatching walks
// the route table by reference and splits the request path into stack
// views, so a routed request allocates only the parameter values it
// actually extracts.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"

namespace shield5g::net {

/// Path parameters extracted from a template match. Keys alias the
/// route template (stable while the handler runs); values are owned
/// copies of the matched path segments.
class PathParams {
 public:
  static constexpr std::size_t kMax = 4;

  /// Throws std::out_of_range when the parameter is absent.
  const std::string& at(std::string_view key) const;
  bool contains(std::string_view key) const noexcept;
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Router internals (public for tests building params directly).
  void add(std::string_view key, std::string_view value);
  void clear() noexcept { count_ = 0; }

 private:
  struct Item {
    std::string_view key;
    std::string value;
  };
  Item items_[kMax];
  std::size_t count_ = 0;
};

using Handler =
    std::function<HttpResponse(const RequestView&, const PathParams&)>;

class Router {
 public:
  /// Registers a handler for a method + path template.
  void add(Method method, const std::string& path_template, Handler handler);

  /// Dispatches; 404 when no route matches, 405 when the path matches
  /// but the method does not.
  HttpResponse route(const RequestView& req) const;

 private:
  struct Route {
    Method method;
    std::vector<std::string> segments;  // ":name" marks a parameter
    Handler handler;
  };

  static std::vector<std::string> split(const std::string& path);
  static bool match(const Route& route, const std::string_view* segments,
                    std::size_t count, PathParams& params);

  std::vector<Route> routes_;
};

}  // namespace shield5g::net
