// shield_analyze internals: lexer edge cases (raw strings, spliced
// comments, nested ternaries), ct-flow taint propagation, det-lint and
// lock-lint semantics, audit suppression, and the baseline ratchet
// (old findings masked, new findings never).
#include "analyze_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace shield5g::lint {
namespace {

bool has(const std::vector<Finding>& findings, const std::string& rule,
         int line) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.line == line;
                     });
}

int count_rule(const std::vector<Finding>& findings,
               const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

TEST(Lexer, RawStringWithEmbeddedQuoteDoesNotDesync) {
  const auto toks = lex(
      "const char* s = R\"(quote \" inside)\";\n"
      "int after = 1;\n");
  // `after` must survive as a token on line 2 — a naive string stripper
  // would treat the embedded quote as an opener and eat the next line.
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "after";
  });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 2);
  // Nothing from inside the raw string leaks out as a token.
  EXPECT_TRUE(std::none_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "quote" || t.text == "inside";
  }));
}

TEST(Lexer, DelimitedRawString) {
  const auto toks = lex("auto s = R\"x(inner )\" still raw)x\"; int z;\n");
  EXPECT_TRUE(std::none_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "raw" || t.text == "inner";
  }));
  EXPECT_TRUE(std::any_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "z";
  }));
}

TEST(Lexer, BackslashNewlineSpliceJoinsIdentifiers) {
  const auto toks = lex("int S5G_\\\nLOG = 0;\n");
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "S5G_LOG";
  });
  ASSERT_NE(it, toks.end()) << "splice not folded";
  EXPECT_EQ(it->line, 1);
}

TEST(Lexer, SplicedLineCommentContinues) {
  // The comment's backslash-newline extends it over the second line; a
  // scanner that ends comments at the newline would see `hidden`.
  const auto toks = lex("int a; // comment \\\nint hidden;\nint b;\n");
  EXPECT_TRUE(std::none_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "hidden";
  }));
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "b";
  });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 3);
}

TEST(Lexer, StringAndCharAndCommentsStripped) {
  const auto toks = lex(
      "int a = 'x'; /* block\n comment */ const char* s = \"str \\\" q\";\n"
      "int b;\n");
  EXPECT_TRUE(std::none_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "comment" || t.text == "str" || t.text == "x" ||
           t.text == "q";
  }));
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "b";
  });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 3);
}

TEST(Lexer, DigitSeparatorIsNotACharLiteral) {
  const auto toks = lex("auto ns = 600'000'000; int tail = 7;\n");
  EXPECT_TRUE(std::any_of(toks.begin(), toks.end(), [](const Tok& t) {
    return t.text == "tail";
  }));
}

TEST(Lexer, NestedTernariesTokenize) {
  const auto toks = lex("int r = a ? (b ? 1 : 2) : (c ? 3 : 4);\n");
  EXPECT_EQ(std::count_if(toks.begin(), toks.end(),
                          [](const Tok& t) { return t.text == "?"; }),
            3);
  EXPECT_EQ(std::count_if(toks.begin(), toks.end(),
                          [](const Tok& t) { return t.text == ":"; }),
            3);
}

// ---------------------------------------------------------------------
// ct-flow taint propagation
// ---------------------------------------------------------------------

TEST(CtFlow, FlagsBranchOnSecretParameter) {
  const auto findings = scan_source(
      "ausf.cpp",
      "int f(const SecretBytes& kamf) {\n"
      "  if (kamf[0]) return 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(has(findings, "ct-flow", 2));
}

TEST(CtFlow, TaintFlowsThroughAssignmentChain) {
  const auto findings = scan_source(
      "ausf.cpp",
      "int f(const SecretBytes& kseaf) {\n"
      "  auto a = mix(kseaf);\n"
      "  auto b = a;\n"
      "  return b ? 1 : 0;\n"
      "}\n");
  EXPECT_TRUE(has(findings, "ct-flow", 4));
}

TEST(CtFlow, MemcpyTaintsDestination) {
  const auto findings = scan_source(
      "ausf.cpp",
      "void f(const SecretBytes& kausf) {\n"
      "  std::uint8_t buf[32];\n"
      "  std::memcpy(buf, kausf.unsafe_bytes().data(), 32);\n"
      "  while (buf[0]) spin();\n"
      "}\n");
  EXPECT_TRUE(has(findings, "ct-flow", 4));
}

TEST(CtFlow, DeclassifyOutputIsPublic) {
  const auto findings = scan_source(
      "ausf.cpp",
      "int f(const SecretBytes& kamf, const sgx::EnclaveContext* ctx) {\n"
      "  const Bytes pub = kamf.declassify(DeclassifyReason::kTransport,"
      " ctx);\n"
      "  if (pub[0]) return 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "ct-flow"), 0);
}

TEST(CtFlow, SizeAndEmptyAreSanitized) {
  const auto findings = scan_source(
      "ausf.cpp",
      "int f(const Secret<32>& k) {\n"
      "  if (k.size() != 32) return -1;\n"
      "  if (k.empty()) return -2;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "ct-flow"), 0);
}

TEST(CtFlow, SecretIndexedSubscript) {
  const auto findings = scan_source(
      "ausf.cpp",
      "std::uint8_t f(const Bytes& sbox, const SecretBytes& knas_enc) {\n"
      "  return sbox[knas_enc[5]];\n"
      "}\n");
  EXPECT_TRUE(has(findings, "ct-flow", 2));
}

TEST(CtFlow, TaintIsScopedPerFunction) {
  // `k` is secret in f() but a plain int in g(): no cross-function
  // bleed-through.
  const auto findings = scan_source(
      "ausf.cpp",
      "void f(const SecretBytes& k) { use(k); }\n"
      "int g(int k) {\n"
      "  if (k) return 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "ct-flow"), 0);
}

TEST(CtFlow, SeedsX25519KernelScalarsByName) {
  // The ladder's clamped scalar is a raw byte array the Secret type
  // system cannot mark: the kernel's name seeds it. The same body under
  // another name has no seed.
  const std::string body =
      "(const std::uint8_t k[32]) {\n"
      "  const std::uint64_t k_t = k[31] & 1;\n"
      "  if (k_t) return 1;\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(has(scan_source("x25519.cpp", "int ladder_fraction" + body),
                  "ct-flow", 3));
  EXPECT_EQ(count_rule(scan_source("x25519.cpp", "int parity" + body),
                       "ct-flow"),
            0);
  // The comb's digits come from a call; its kernel seeds them too.
  const auto comb = scan_source(
      "x25519_comb.cpp",
      "void comb_eval_fraction(const CombTable& t, const std::uint8_t* s) {\n"
      "  std::int8_t digits[64];\n"
      "  recode(s, digits);\n"
      "  if (digits[0] == 3) return;\n"
      "}\n");
  EXPECT_TRUE(has(comb, "ct-flow", 4));
  // The IFMA comb takes the digits themselves, and its helpers one
  // digit or its sign bit.
  const auto lanes = scan_source(
      "x25519_ifma.cpp",
      "void x25519_ifma_comb_fraction(const std::uint64_t* t,\n"
      "                               const std::int8_t digits[64]) {\n"
      "  if (digits[0] == 3) return;\n"
      "}\n"
      "Fe4 comb_entry4(const __m256i v[4], std::uint64_t neg) {\n"
      "  if (neg) return negate(v);\n"
      "  return load(v);\n"
      "}\n");
  EXPECT_TRUE(has(lanes, "ct-flow", 3));
  EXPECT_TRUE(has(lanes, "ct-flow", 6));
}

TEST(CtFlow, PreprocessorConditionDoesNotSwallowNamespace) {
  // `defined(...)` followed by `namespace {` once read as one function
  // spanning the whole namespace, so the seeded helper inside it went
  // unseeded and its branch unflagged.
  const auto findings = scan_source(
      "x25519_ifma.cpp",
      "#if defined(__AVX512IFMA__)\n"
      "namespace {\n"
      "void cswap_pairs(Fe4& x, std::uint64_t swap) {\n"
      "  if (swap) flip(x);\n"
      "}\n"
      "}  // namespace\n"
      "#endif\n");
  EXPECT_TRUE(has(findings, "ct-flow", 4));
}

TEST(CtFlow, CtAuditedSuppressesAndIsCounted) {
  AuditCounts audits;
  const auto findings = analyze_source(
      "ausf.cpp",
      "int f(const SecretBytes& kamf) {\n"
      "  // ct-audited(reviewed: branch is on a blinded value)\n"
      "  if (kamf[0]) return 1;\n"
      "  return 0;\n"
      "}\n",
      {}, {}, &audits);
  EXPECT_EQ(count_rule(findings, "ct-flow"), 0);
  EXPECT_EQ(audits.ct, 1);
}

// ---------------------------------------------------------------------
// det-lint
// ---------------------------------------------------------------------

TEST(DetLint, AppliesOnlyUnderSrc) {
  const std::string code =
      "std::uint64_t now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n"
      "}\n";
  EXPECT_EQ(count_rule(scan_source("src/sim/clock2.cpp", code), "det-lint"),
            1);
  EXPECT_EQ(count_rule(scan_source("bench/timer.cpp", code), "det-lint"), 0);
}

TEST(DetLint, RngHomeIsExemptFromRandomnessRule) {
  const std::string code =
      "int f() { std::random_device rd; return rd(); }\n";
  EXPECT_EQ(count_rule(scan_source("src/common/rng.cpp", code), "det-lint"),
            0);
  EXPECT_EQ(count_rule(scan_source("src/common/other.cpp", code),
                       "det-lint"),
            1);
}

TEST(DetLint, UnorderedIterationSeenThroughSiblingHeader) {
  // The container is declared in the header; the .cpp iterates it. The
  // sibling-header merge closes this TU-boundary blind spot.
  const std::string header =
      "struct Registry { std::unordered_map<int, int> table; };\n";
  const std::string cpp =
      "std::uint64_t Registry::digest() {\n"
      "  std::uint64_t d = 0;\n"
      "  for (const auto& [k, v] : table) d ^= v;\n"
      "  return d;\n"
      "}\n";
  const auto with = analyze_source("src/common/reg.cpp", cpp, header);
  EXPECT_TRUE(has(with, "det-lint", 3));
  const auto without = analyze_source("src/common/reg.cpp", cpp);
  EXPECT_EQ(count_rule(without, "det-lint"), 0);
}

TEST(DetLint, PointerKeyedOrderedContainer) {
  const auto findings = scan_source(
      "src/net/track.cpp", "std::map<const Conn*, int> order;\n");
  EXPECT_TRUE(has(findings, "det-lint", 1));
  const auto benign = scan_source(
      "src/net/track.cpp", "std::map<std::string, Conn*> byname;\n");
  EXPECT_EQ(count_rule(benign, "det-lint"), 0);
}

// ---------------------------------------------------------------------
// lock-lint
// ---------------------------------------------------------------------

const char* kLockSnippet =
    "class T {\n"
    " public:\n"
    "  void good() {\n"
    "    std::lock_guard<std::mutex> lock(mu_);\n"
    "    n_ = 1;\n"
    "  }\n"
    "  int bad() { return n_; }\n"
    " private:\n"
    "  std::mutex mu_;\n"
    "  int n_ SHIELD_GUARDED_BY(mu_) = 0;\n"
    "};\n";

TEST(LockLint, GuardedMemberNeedsTheLock) {
  const auto findings = scan_source("src/common/t.cpp", kLockSnippet);
  EXPECT_EQ(count_rule(findings, "lock-lint"), 1);
  EXPECT_TRUE(has(findings, "lock-lint", 7));
}

TEST(LockLint, AtomicMemberReadsAreWaitFree) {
  const auto findings = scan_source(
      "src/common/t.cpp",
      "class T {\n"
      "  std::mutex mu_;\n"
      "  std::atomic<int> n_ SHIELD_GUARDED_BY(mu_){0};\n"
      " public:\n"
      "  int read() const { return n_.load(); }\n"
      "  void bump() { n_.fetch_add(1); }\n"
      "  void safe_bump() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    n_.fetch_add(1);\n"
      "  }\n"
      "};\n");
  EXPECT_EQ(count_rule(findings, "lock-lint"), 1);
  EXPECT_TRUE(has(findings, "lock-lint", 6));
}

TEST(LockLint, RequiresContractCheckedAtCallSites) {
  const auto findings = scan_source(
      "src/crypto/p.cpp",
      "class P {\n"
      "  std::mutex mu_;\n"
      "  void refill_locked() SHIELD_REQUIRES(mu_);\n"
      " public:\n"
      "  void bad() { refill_locked(); }\n"
      "  void good() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    refill_locked();\n"
      "  }\n"
      "};\n");
  EXPECT_EQ(count_rule(findings, "lock-lint"), 1);
  EXPECT_TRUE(has(findings, "lock-lint", 5));
}

TEST(LockLint, RequiresBodyRunsWithTheContractHeld) {
  const auto header =
      "class P {\n"
      "  std::mutex mu_;\n"
      "  int n_ SHIELD_GUARDED_BY(mu_) = 0;\n"
      "  void refill_locked() SHIELD_REQUIRES(mu_);\n"
      "};\n";
  const auto findings = analyze_source(
      "src/crypto/p.cpp", "void P::refill_locked() { n_ = 7; }\n", header);
  EXPECT_EQ(count_rule(findings, "lock-lint"), 0);
}

TEST(LockLint, ConstructorBodiesAreExempt) {
  const auto header =
      "class P {\n"
      "  std::mutex mu_;\n"
      "  int n_ SHIELD_GUARDED_BY(mu_);\n"
      "  P();\n"
      "};\n";
  const auto findings = analyze_source(
      "src/crypto/p.cpp", "P::P() : n_(0) { n_ = 1; }\n", header);
  EXPECT_EQ(count_rule(findings, "lock-lint"), 0);
}

TEST(LockLint, ThreadConfinedIsExempt) {
  const auto findings = scan_source(
      "src/common/t.cpp",
      "struct T {\n"
      "  int scratch_[4] SHIELD_THREAD_CONFINED;\n"
      "  void reset() { scratch_[0] = 0; }\n"
      "};\n");
  EXPECT_EQ(count_rule(findings, "lock-lint"), 0);
}

// ---------------------------------------------------------------------
// Audit markers
// ---------------------------------------------------------------------

TEST(Audits, LegacyMarkerHonoredOnlyUnderTestsAndTools) {
  const std::string code =
      "void f(const SecretBytes& kamf) {\n"
      "  // lint-audited(secret-sink: deliberate fixture for the harness)\n"
      "  S5G_LOG(LogLevel::kInfo, \"t\") << kamf;\n"
      "}\n";
  EXPECT_EQ(count_rule(scan_source("tests/harness.cpp", code),
                       "secret-sink"),
            0);
  EXPECT_EQ(count_rule(scan_source("src/nf/ausf.cpp", code), "secret-sink"),
            1);
}

// ---------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------

TEST(Baseline, MasksOldFindingsButNeverNewOnes) {
  const std::vector<Finding> old = {
      {"src/a.cpp", 10, "det-lint", "wall-clock source `steady_clock` x"},
      {"src/a.cpp", 20, "det-lint", "wall-clock source `steady_clock` x"},
  };
  const auto baseline = parse_baseline(serialize_baseline(old));
  // The same two findings (lines moved: keys are line-independent).
  std::vector<Finding> now = {
      {"src/a.cpp", 11, "det-lint", "wall-clock source `steady_clock` x"},
      {"src/a.cpp", 22, "det-lint", "wall-clock source `steady_clock` x"},
  };
  EXPECT_TRUE(filter_with_baseline(now, baseline).empty());
  // A third instance of the same key exceeds the grandfathered count.
  now.push_back(
      {"src/a.cpp", 30, "det-lint", "wall-clock source `steady_clock` x"});
  auto fresh = filter_with_baseline(now, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 30);
  // A different rule/message is new regardless of the baseline.
  now.pop_back();
  now.push_back({"src/a.cpp", 40, "lock-lint", "`x` touched without lock"});
  fresh = filter_with_baseline(now, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "lock-lint");
}

TEST(Baseline, RoundTripsThroughSerialization) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 1, "ct-flow", "branch on a secret-derived value"},
      {"src/b.cpp", 2, "det-lint", "iteration over unordered container"},
      {"src/b.cpp", 3, "det-lint", "iteration over unordered container"},
  };
  const auto parsed = parse_baseline(serialize_baseline(findings));
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_TRUE(filter_with_baseline(findings, parsed).empty());
}

TEST(Baseline, CommentsAndBlanksIgnored) {
  const auto parsed = parse_baseline(
      "# header\n\n1\tsrc/a.cpp\t[ct-flow]\tmsg\n# trailing\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.begin()->second, 1);
}

// ---------------------------------------------------------------------
// Multi-line regression (the PR 2 blind spot, in-memory)
// ---------------------------------------------------------------------

TEST(MultiLine, SinkSplitAcrossLinesIsStillSeen) {
  const auto findings = scan_source(
      "src/nf/ausf.cpp",
      "void f(const SecretBytes& kseaf) {\n"
      "  S5G_LOG(LogLevel::kInfo,\n"
      "          \"ausf\")\n"
      "      << kseaf;\n"
      "}\n");
  EXPECT_TRUE(has(findings, "secret-sink", 4));
}

TEST(MultiLine, SplicedSinkIdentifierIsStillSeen) {
  const auto findings = scan_source(
      "src/nf/ausf.cpp",
      "void f(const SecretBytes& kamf) {\n"
      "  S5G_\\\nLOG(LogLevel::kInfo, \"amf\") << kamf;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "secret-sink"), 1);
}

}  // namespace
}  // namespace shield5g::lint
