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

// The X25519 kernels take the clamped scalar as a raw byte array (no
// Secret type): ct-flow knows them by name and seeds the scalar, and in
// the combs also the digits recoded from it by a call.
void ladder_fraction(const std::uint8_t k[32], ByteView u, Fe& num, Fe& den) {
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    if (k_t) {  // lint-expect(ct-flow)
      step(num, den, u);
    }
  }
}

void x25519_ifma_ladder_fraction(const std::uint8_t k[32], const Fe& x1,
                                 Fe& num, Fe& den) {
  Fe4 lanes[2];
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t bit = (k[t / 8] >> (t % 8)) & 1;
    step4(lanes[bit], x1);  // lint-expect(ct-flow)
  }
}

void signed_digits(const std::uint8_t* scalar32, std::int8_t out[64]) {
  unsigned carry = 0;
  for (int i = 0; i < 64; ++i) {
    const unsigned v = ((scalar32[i / 2] >> (4 * (i & 1))) & 0xf) + carry;
    carry = 0;
    if (v >= 8) carry = 1;  // lint-expect(ct-flow)
    out[i] = static_cast<std::int8_t>(v - (carry << 4));
  }
}

void comb_eval_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        Fe& num, Fe& den) {
  std::int8_t digits[64];
  signed_digits(scalar32, digits);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t mag = magnitude(digits[i]);
    if (mag == 3) continue;  // lint-expect(ct-flow)
    const Niels* row = table.entry[i];
    add(num, den, row[mag]);  // lint-expect(ct-flow)
  }
}

void x25519_ifma_comb_fraction(const std::uint64_t* table,
                               const std::int8_t digits[64], Fe& num,
                               Fe& den) {
  Fe4 acc = identity4();
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t* row = table + i * 8 * 16;
    if (digits[i] == 0) continue;  // lint-expect(ct-flow)
    acc = madd4(acc, load4(&row[16 * digits[i]]));  // lint-expect(ct-flow)
  }
  finish(acc, num, den);
}

// The safegcd inversion's divsteps see the field element only as the
// low limbs of (f, g) passed in: ct-flow seeds them by routine name.
// A divstep must not branch on g's parity, nor stop once g reaches 0.
std::int64_t divsteps_packed(int n, std::int64_t zeta, std::uint64_t& f,
                             std::uint64_t& g, Trans2x2& t) {
  std::uint64_t uv = 1, qr = 1ULL << 32;
  for (int i = 0; i < n; ++i) {
    if (g == 0) break;  // lint-expect(ct-flow)
    if (g & 1) {  // lint-expect(ct-flow)
      g += f;
      qr += uv;
    }
    g >>= 1;
    uv <<= 1;
  }
  unpack(uv, qr, t);
  return zeta - n;
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
