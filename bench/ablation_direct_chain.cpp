// ABLATION — P-AKA module chaining topology (paper §IV-B).
//
// The paper deliberately restricts P-AKA modules to talking only to
// their parent VNFs, noting that "a number of these exchanges could be
// reduced if the P-AKA modules directly communicated with each other".
// This bench quantifies that design decision: phase-1 AKA derivation
// (HE AV at eUDM, then SE derivation at eAUSF) orchestrated the paper's
// way versus a direct eUDM->eAUSF chain.
#include "bench/bench_util.h"
#include "bench/paka_harness.h"

using namespace shield5g;

namespace {

struct ChainSetup {
  sim::VirtualClock clock;
  sgx::Machine machine{clock};
  net::Bus bus{clock};
  net::HostEnv vnf_env{clock};
  std::unique_ptr<paka::EudmAkaService> eudm;
  std::unique_ptr<paka::EausfAkaService> eausf;
  std::unique_ptr<net::Server> ausf_vnf;  // parent-VNF handoff target

  explicit ChainSetup(paka::Isolation isolation) {
    paka::PakaOptions opts;
    opts.isolation = isolation;
    eudm = std::make_unique<paka::EudmAkaService>(machine, bus, opts);
    eausf = std::make_unique<paka::EausfAkaService>(machine, bus, opts);
    eudm->deploy();
    eudm->provision_key(nf::Supi{"001010000000001"}, Bytes(16, 0x4b));
    eausf->deploy();
    // Minimal AUSF VNF: accepts the HE AV handoff from the UDM and
    // relays the SE request to its own eAUSF module.
    ausf_vnf = std::make_unique<net::Server>("ausf", vnf_env, bus.costs());
    ausf_vnf->router().add(
        net::Method::kPost, "/nausf-auth/v1/he-av",
        [this](const net::RequestView& req, const net::PathParams&) {
          const auto av_body = json::parse(req.body);
          const auto se = bus.request("ausf", "eausf-aka",
                                      se_request_from(av_body), &vnf_env);
          return se.response;
        });
    bus.attach(*ausf_vnf);
    // Warm all cold paths.
    bus.request("udm", "eudm-aka", bench::eudm_request());
    bus.request("ausf", "eausf-aka", bench::eausf_request());
  }

  net::HttpRequest se_request_from(const json::Value& av_body) {
    json::Object body;
    body["rand"] = *av_body.get_string("rand");
    body["xresStar"] = *av_body.get_string("xresStar");
    body["snn"] = "5G:mnc001.mcc001.3gppnetwork.org";
    body["kausf"] = *av_body.get_string("kausf");
    return nf::json_post("/paka/v1/derive-se", json::Value(std::move(body)));
  }

  /// Paper topology: UDM asks eUDM, hands the HE AV to the AUSF VNF,
  /// which asks its own eAUSF module (three request/response pairs).
  sim::Nanos paper_flow(int* messages) {
    const sim::Nanos start = clock.now();
    const auto av = bus.request("udm", "eudm-aka", bench::eudm_request());
    net::HttpRequest handoff;
    handoff.method = net::Method::kPost;
    handoff.path = "/nausf-auth/v1/he-av";
    handoff.headers.set("content-type", "application/json");
    handoff.body = av.response.body;
    bus.request("udm", "ausf", handoff);
    *messages = 6;
    return clock.now() - start;
  }

  /// Direct chain: eUDM calls eAUSF itself, skipping the parent-VNF
  /// handoff — but under SGX the chained hop's client-side syscalls are
  /// enclave OCALLs (the inter-enclave penalty SafeBricks warns about).
  sim::Nanos direct_flow(int* messages) {
    const sim::Nanos start = clock.now();
    const auto av = bus.request("udm", "eudm-aka", bench::eudm_request());
    const auto av_body = json::parse(av.response.body);
    bus.request("eudm-aka", "eausf-aka", se_request_from(av_body),
                &eudm->env());
    *messages = 4;
    return clock.now() - start;
  }
};

void run(paka::Isolation isolation, const char* label, int n) {
  bench::subheading(label);
  ChainSetup setup(isolation);
  Samples paper_us, direct_us;
  int messages = 0;
  for (int i = 0; i < n; ++i) {
    paper_us.add(sim::to_us(setup.paper_flow(&messages)));
  }
  for (int i = 0; i < n; ++i) {
    direct_us.add(sim::to_us(setup.direct_flow(&messages)));
  }
  bench::print_dist_row("parent-VNF topology", paper_us, "us");
  bench::print_dist_row("direct module chain", direct_us, "us");
  bench::print_kv("direct-chain speedup",
                  paper_us.median() / direct_us.median(), "x");
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::iterations(argc, argv, 200, bench::Args::kCount);
  bench::heading("ABLATION: P-AKA chaining topology (paper design decision)");
  run(paka::Isolation::kContainer, "container isolation", n);
  run(paka::Isolation::kSgx, "SGX isolation", n);
  bench::print_note(
      "the paper keeps the parent-VNF topology despite the possible "
      "saving, to preserve module autonomy and OAI's registration flow");
  return 0;
}
