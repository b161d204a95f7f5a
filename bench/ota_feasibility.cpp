// OTA — HMEE feasibility test with a COTS UE (paper §V-B6, Fig. 11,
// Table IV).
//
// Reproduces the over-the-air scenario: a OnePlus 8 model connects to
// the OAI gNB (test PLMN 001/01, 106 PRBs, 3.6192 GHz) against an SGX
// slice — plus the two failure gates the paper reports (custom PLMN
// undetectable; OS build compatibility).
#include "bench/bench_util.h"
#include "ran/cots_ue.h"
#include "slice/slice.h"

using namespace shield5g;

int main(int argc, char** argv) {
  bench::check_args(argc, argv, bench::Args::kNone);
  bench::heading("OTA: COTS UE feasibility test through the P-AKA modules");

  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kSgx;
  cfg.subscriber_count = 1;
  slice::Slice s(cfg);
  const auto creation = s.create();

  std::printf("  testbed (paper Table IV analogue):\n");
  std::printf("    core host : 2x Xeon Silver 4314, 16GB EPC, "
              "SGX slice (attested=%s)\n",
              creation.attestation_ok ? "yes" : "no");
  std::printf("    gNB       : %s, PLMN %s, %u PRBs, %.4f GHz\n",
              s.gnb().cell().name.c_str(), s.gnb().cell().plmn.id().c_str(),
              s.gnb().cell().prbs, s.gnb().cell().frequency_ghz);
  const ran::CotsModel model;
  std::printf("    UE        : %s, %s\n", model.model.c_str(),
              model.os_version.c_str());

  // Scenario 1: the paper's successful connection.
  {
    ran::CotsUe phone(model, s.subscriber(0));
    const auto outcome = phone.connect({s.gnb().cell()}, s.gnbsim());
    std::printf("\n  [1] test PLMN + compatible OS : %s",
                ran::ota_outcome_name(outcome));
    if (outcome == ran::OtaOutcome::kConnected) {
      std::printf("  -> \"%s\"\n", phone.network_name().c_str());
      std::printf("      data session up, UE IP %s\n",
                  phone.device().ue_ip().c_str());
    } else {
      std::printf("\n");
    }
  }

  // Scenario 2: custom PLMN broadcast (paper: UE cannot detect the gNB).
  {
    ran::CotsUe phone(model, s.subscriber(0), 2);
    ran::CellConfig custom = s.gnb().cell();
    custom.plmn = nf::Plmn{"123", "45"};
    std::printf("  [2] custom PLMN 12345         : %s\n",
                ran::ota_outcome_name(
                    phone.connect({custom}, s.gnbsim())));
  }

  // Scenario 3: other OS build (paper: specific Oxygen build required).
  {
    ran::CotsModel other_os = model;
    other_os.os_version = "Oxygen 12.1.1.1.IN21AA";
    ran::CotsUe phone(other_os, s.subscriber(0), 3);
    std::printf("  [3] unvalidated OS build      : %s\n",
                ran::ota_outcome_name(
                    phone.connect({s.gnb().cell()}, s.gnbsim())));
  }

  bench::paper_row("result", "OnePlus 8 registers through the isolated AKA "
                   "functions: \"Test1-1 - OpenAirInterface\"");
  bench::paper_row("gates", "test PLMN 00101 required for detection; "
                   "Oxygen 11.0.11.11.IN21DA required for the session");
  return 0;
}
