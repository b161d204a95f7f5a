// Standalone P-AKA module harness used by the figure/table benches that
// exercise a module directly (the way its parent VNF does), without the
// full slice around it.
#pragma once

#include <memory>
#include <string>

#include "json/json.h"
#include "net/bus.h"
#include "nf/sbi.h"
#include "paka/aka_amf.h"
#include "paka/aka_ausf.h"
#include "paka/aka_udm.h"
#include "sgx/machine.h"

namespace shield5g::bench {

/// One module deployed on its own simulated host.
template <typename Service>
struct ModuleBench {
  sim::VirtualClock clock;
  sgx::Machine machine;
  net::Bus bus;
  std::unique_ptr<Service> service;

  ModuleBench(paka::PakaOptions options, std::uint64_t seed = 1)
      : machine(clock, seed ^ 0x5a5aULL), bus(clock, seed) {
    service = std::make_unique<Service>(machine, bus, options);
  }

  sim::Nanos deploy() {
    const sim::Nanos load = service->deploy();
    if constexpr (std::is_same_v<Service, paka::EudmAkaService>) {
      service->provision_key(nf::Supi{"001010000000001"}, Bytes(16, 0x4b));
    }
    return load;
  }

  net::Bus::Exchange request(const net::HttpRequest& req) {
    return bus.request("parent-vnf", service->name(), req);
  }
};

inline net::HttpRequest eudm_request() {
  json::Object body;
  body["supi"] = "001010000000001";
  body["opc"] = nf::hex_field(Bytes(16, 0x09));
  body["rand"] = nf::hex_field(Bytes(16, 0x25));
  body["sqn"] = nf::hex_field(Bytes{0, 0, 0, 0, 0x10, 0});
  body["amfId"] = nf::hex_field(Bytes{0x80, 0x00});
  body["snn"] = "5G:mnc001.mcc001.3gppnetwork.org";
  return nf::json_post("/paka/v1/generate-av", json::Value(std::move(body)));
}

inline net::HttpRequest eausf_request() {
  json::Object body;
  body["rand"] = nf::hex_field(Bytes(16, 0x25));
  body["xresStar"] = nf::hex_field(Bytes(16, 0x31));
  body["snn"] = "5G:mnc001.mcc001.3gppnetwork.org";
  body["kausf"] = nf::hex_field(Bytes(32, 0x77));
  return nf::json_post("/paka/v1/derive-se", json::Value(std::move(body)));
}

inline net::HttpRequest eamf_request() {
  json::Object body;
  body["kseaf"] = nf::hex_field(Bytes(32, 0x55));
  body["supi"] = "001010000000001";
  return nf::json_post("/paka/v1/derive-kamf", json::Value(std::move(body)));
}

}  // namespace shield5g::bench
