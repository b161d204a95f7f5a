// Seeded ct-flow violations: secret-dependent control flow and memory
// access that the SecretBytes type system cannot see — branches,
// switches, ternaries, short-circuits, loops and table lookups driven
// by tainted values, including taint that flowed through a local
// assignment or a memcpy. The unmarked uses (size(), declassify(),
// the ct-audited line) are benign and must NOT be flagged.
//
// Fixture only — never compiled, only tokenized by the lint self-test.
#include "common/secret.h"

namespace shield5g::fixture {

int secret_branch(const SecretBytes& kamf, int fallback) {
  if (kamf[0] != 0) {  // lint-expect(ct-flow)
    return 1;
  }
  return fallback;
}

int secret_switch(const Secret<16>& opc) {
  switch (opc.unsafe_bytes()[0]) {  // lint-expect(ct-flow)
    case 0:
      return 1;
    default:
      return 2;
  }
}

int secret_ternary(const SecretBytes& kseaf) {
  bool flip = derive(kseaf);  // taint flows through the assignment
  return flip ? 1 : 0;  // lint-expect(ct-flow)
}

bool secret_shortcircuit(const SecretBytes& kgnb, bool ready) {
  return ready && kgnb[3];  // lint-expect(ct-flow)
}

std::uint8_t sbox_lookup(const Bytes& table, const SecretBytes& knas_int) {
  return table[knas_int[0]];  // lint-expect(ct-flow)
}

void secret_loop(const SecretBytes& knas_enc) {
  while (knas_enc.unsafe_bytes()[3]) {  // lint-expect(ct-flow)
    mix();
  }
}

void copy_then_branch(const SecretBytes& kausf, std::uint8_t* out) {
  std::uint8_t buf[32];
  std::memcpy(buf, kausf.unsafe_bytes().data(), 32);
  if (buf[0]) {  // lint-expect(ct-flow)
    out[0] = 1;
  }
}

int benign_uses(const SecretBytes& kamf, const sgx::EnclaveContext* ctx) {
  // Benign: the length of a secret is public.
  if (kamf.size() != 32) return -1;
  // Benign: declassify() output is public by contract (audited gate).
  const Bytes pub = kamf.declassify(DeclassifyReason::kTransport, ctx);
  for (std::size_t i = 0; i < pub.size(); ++i) consume(pub[i]);
  // ct-audited(fixture: demonstrates the audited escape hatch)
  if (kamf[0] == 0) return -3;
  return 0;
}

}  // namespace shield5g::fixture
