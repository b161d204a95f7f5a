// ct-flow: TU-local taint propagation for secret-dependent control flow
// and memory access. The type system in src/common/secret.h stops raw
// secret bytes from reaching sinks, but it cannot see a branch on a
// tainted bool or a table lookup indexed by a key byte — those are the
// timing/side-channel classes this pass closes.
//
// Model (per function, lexically delimited):
//   seeds    declarations and parameters typed SecretBytes / SecretView
//            / Secret<N>, and anything assigned from .unsafe_bytes().
//   flow     `lhs = rhs` and compound assignments taint lhs when rhs
//            mentions a tainted value; memcpy/memmove taint their
//            destination. declassify() output is public (the audited
//            gate), as are .size()/.empty().
//   flags    tainted value inside an if/switch/while condition, a for
//            bound, a ternary condition, a short-circuit operand, or an
//            array subscript.
// Escape hatch: `// ct-audited(<reason>)` on or above the line.
#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "analyze_core.h"

namespace shield5g::lint {
namespace {

const std::unordered_set<std::string>& secret_types() {
  static const std::unordered_set<std::string> kSet{
      "SecretBytes", "SecretView", "Secret"};
  return kSet;
}

/// Methods whose result is public even when called on a secret.
bool public_method(const std::string& name) {
  return name == "size" || name == "empty" || name == "declassify";
}

bool keyword(const std::string& t) {
  static const std::unordered_set<std::string> kSet{
      "if",     "for",    "while",  "switch", "return", "sizeof",
      "catch",  "new",    "delete", "else",   "do",     "case",
      "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
  };
  return kSet.count(t) > 0;
}

std::size_t match_brace(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

/// One function's analysis over toks[begin, end] (param-list open paren
/// through body close brace).
class FunctionTaint {
 public:
  FunctionTaint(const std::string& file, const std::vector<Tok>& toks,
                std::size_t begin, std::size_t end)
      : file_(file), toks_(toks), begin_(begin), end_(end) {}

  void analyze(std::vector<Finding>& findings) {
    seed();
    propagate();
    flag(findings);
  }

 private:
  bool tainted(const std::string& ident) const {
    return taint_.count(normalize_ident(ident)) > 0;
  }

  /// Secret-typed declaration at i? Returns the declared identifier's
  /// token index (or 0 when not a declaration).
  std::size_t declared_ident(std::size_t i) const {
    if (!secret_types().count(toks_[i].text)) return 0;
    std::size_t j = i + 1;
    if (toks_[i].text == "Secret") {
      if (j >= end_ || toks_[j].text != "<") return 0;  // e.g. "Secret sauce"
      const std::size_t close = match_angle(toks_, j);
      if (close == j) return 0;
      j = close + 1;
    }
    while (j < end_ &&
           (toks_[j].text == "const" || toks_[j].text == "&" ||
            toks_[j].text == "*")) {
      ++j;
    }
    if (j < end_ && toks_[j].ident && !keyword(toks_[j].text)) return j;
    return 0;
  }

  void seed() {
    for (std::size_t i = begin_; i <= end_ && i < toks_.size(); ++i) {
      const std::size_t decl = declared_ident(i);
      if (decl != 0) taint_.insert(normalize_ident(toks_[decl].text));
    }
  }

  /// True when [from, to) mentions a tainted value whose use is not
  /// sanitized, or the raw-bytes escape hatch.
  bool region_tainted(std::size_t from, std::size_t to) const {
    for (std::size_t i = from; i < to && i < toks_.size(); ++i) {
      if (!toks_[i].ident) continue;
      // ct_equal()'s boolean is safe to branch on by construction —
      // that is the whole point of the constant-time compare.
      if (toks_[i].text == "ct_equal" && i + 1 < toks_.size() &&
          toks_[i + 1].text == "(") {
        i = match_paren(toks_, i + 1);
        continue;
      }
      if (toks_[i].text == "unsafe_bytes") return true;
      if (!tainted(toks_[i].text)) continue;
      if (sanitized(i)) continue;
      return true;
    }
    return false;
  }

  /// True when [from, to) routes through the declassify() audit gate —
  /// its output is public by contract.
  bool declassified(std::size_t from, std::size_t to) const {
    for (std::size_t i = from; i < to && i < toks_.size(); ++i) {
      if (toks_[i].text == "declassify") return true;
    }
    return false;
  }

  /// Use at i is public: `x.size()`, `x.empty()`, or the declassify()
  /// audit gate.
  bool sanitized(std::size_t i) const {
    if (i + 2 >= toks_.size()) return false;
    const std::string& dot = toks_[i + 1].text;
    if (dot != "." && dot != "->") return false;
    return public_method(toks_[i + 2].text);
  }

  void propagate() {
    // Fixpoint over assignment statements: lexical order means a
    // single pass usually converges, but `a = b; ...; c = a;` across
    // loop bodies needs the repeat.
    for (int round = 0; round < 8; ++round) {
      const std::size_t before = taint_.size();
      for (std::size_t i = begin_; i <= end_ && i < toks_.size(); ++i) {
        propagate_assignment(i);
        propagate_memcpy(i);
      }
      if (taint_.size() == before) break;
    }
  }

  /// `lhs = rhs` / `lhs += rhs` with a tainted rhs taints lhs.
  void propagate_assignment(std::size_t i) {
    if (toks_[i].text != "=") return;
    if (i == 0 || i + 1 >= toks_.size()) return;
    const std::string& prev = toks_[i - 1].text;
    if (prev == "<" || prev == ">" || prev == "=" || prev == "!") return;
    std::size_t lhs = i - 1;
    if (prev == "+" || prev == "-" || prev == "*" || prev == "/" ||
        prev == "%" || prev == "&" || prev == "|" || prev == "^") {
      if (lhs == 0) return;
      --lhs;  // compound assignment tokenizes as op then '='
    }
    // Walk back over a balanced subscript to the base identifier.
    if (toks_[lhs].text == "]") {
      int depth = 0;
      while (lhs > begin_) {
        if (toks_[lhs].text == "]") ++depth;
        if (toks_[lhs].text == "[" && --depth == 0) break;
        --lhs;
      }
      if (lhs > begin_) --lhs;
    }
    if (!toks_[lhs].ident) return;
    // RHS region runs to the statement end.
    std::size_t end = i + 1;
    int paren = 0;
    while (end < toks_.size() && end <= end_) {
      const std::string& t = toks_[end].text;
      if (t == "(") ++paren;
      if (t == ")") --paren;
      if ((t == ";" || t == "{") && paren <= 0) break;
      ++end;
    }
    if (declassified(i + 1, end)) return;  // audited gate: public output
    if (region_tainted(i + 1, end)) {
      taint_.insert(normalize_ident(toks_[lhs].text));
    }
  }

  /// Base identifier of the first call argument and the index of the
  /// comma ending it (== close when there is no second argument). The
  /// base is the first top-level identifier — `k4[l]` is the array k4,
  /// not the subscript l — skipping anything nested in () or [].
  std::size_t first_arg_base(std::size_t open, std::size_t close,
                             std::string& base) const {
    std::size_t j = open + 1;
    int depth = 0;
    for (; j < close; ++j) {
      const std::string& tok = toks_[j].text;
      if (tok == "(" || tok == "[") ++depth;
      if (tok == ")" || tok == "]") --depth;
      if (tok == "," && depth == 0) break;
      if (depth == 0 && base.empty() && toks_[j].ident &&
          !keyword(toks_[j].text)) {
        base = toks_[j].text;
      }
    }
    return j;
  }

  /// memcpy/memmove with a tainted source taints the destination base.
  void propagate_memcpy(std::size_t i) {
    const std::string& t = toks_[i].text;
    if (t != "memcpy" && t != "memmove") return;
    if (i + 1 >= toks_.size() || toks_[i + 1].text != "(") return;
    const std::size_t close = match_paren(toks_, i + 1);
    std::string dst;
    const std::size_t comma = first_arg_base(i + 1, close, dst);
    if (dst.empty() || comma >= close) return;
    if (region_tainted(comma, close)) taint_.insert(normalize_ident(dst));
  }

  void flag(std::vector<Finding>& findings) const {
    for (std::size_t i = begin_; i <= end_ && i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if ((t == "if" || t == "while" || t == "switch" || t == "for") &&
          i + 1 < toks_.size() && toks_[i + 1].text == "(") {
        const std::size_t close = match_paren(toks_, i + 1);
        if (region_tainted(i + 2, close)) {
          const char* what =
              t == "switch"
                  ? "switch on a secret-derived value"
                  : (t == "if" ? "branch on a secret-derived value"
                               : "loop bounded by a secret-derived value");
          add_finding(findings, file_, toks_[i].line, "ct-flow",
                      std::string(what) + "; make it constant-time or "
                      "annotate ct-audited(<reason>)");
        }
      } else if (t == "?") {
        if (ternary_cond_tainted(i)) {
          add_finding(findings, file_, toks_[i].line, "ct-flow",
                      "ternary selected by a secret-derived value");
        }
      } else if (t == "&&" || t == "||") {
        const std::string lhs = left_operand(toks_, i);
        const std::string rhs = right_operand(toks_, i + 1);
        if ((!lhs.empty() && taint_.count(lhs) && !sanitized_at(i - 1)) ||
            (!rhs.empty() && taint_.count(rhs))) {
          add_finding(findings, file_, toks_[i].line, "ct-flow",
                      "short-circuit on a secret-derived value");
        }
      } else if (t == "[" && i > begin_ && toks_[i - 1].ident &&
                 !keyword(toks_[i - 1].text)) {
        const std::size_t close = match_square(toks_, i);
        if (region_tainted(i + 1, close)) {
          add_finding(findings, file_, toks_[i].line, "ct-flow",
                      "array subscript indexed by a secret-derived value");
        }
      }
    }
  }

  bool sanitized_at(std::size_t i) const {
    return toks_[i].ident && sanitized(i);
  }

  /// Condition of `cond ? a : b`: scan back from '?' to the nearest
  /// expression boundary.
  bool ternary_cond_tainted(std::size_t q) const {
    int paren = 0;
    for (std::size_t i = q; i-- > begin_;) {
      const std::string& t = toks_[i].text;
      if (t == ")") ++paren;
      if (t == "(") {
        if (paren == 0) break;
        --paren;
      }
      if (paren == 0 &&
          (t == ";" || t == "{" || t == "}" || t == "," || t == "=" ||
           t == "return")) {
        break;
      }
      if (paren == 0 && toks_[i].ident && tainted(t) && !sanitized(i)) {
        return true;
      }
    }
    return false;
  }

  const std::string& file_;
  const std::vector<Tok>& toks_;
  std::size_t begin_;
  std::size_t end_;
  std::unordered_set<std::string> taint_;
};

}  // namespace

void run_ct_flow(const std::string& file, const std::vector<Tok>& toks,
                 std::vector<Finding>& findings) {
  // Lexical function discovery: `ident ( ... ) [qualifiers] {` at any
  // nesting level; the body (and its lambdas) is one taint scope.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "(" || i == 0) continue;
    const Tok& name = toks[i - 1];
    if (!name.ident || keyword(name.text)) continue;
    const std::size_t close = match_paren(toks, i);
    if (close >= toks.size()) continue;
    std::size_t j = close + 1;
    bool init_list = false;
    while (j < toks.size()) {
      const std::string& t = toks[j].text;
      if (t == "const" || t == "noexcept" || t == "override" ||
          t == "final" || t == "mutable" || t == "->" || t == "::" ||
          t == "<" || t == ">" || toks[j].ident) {
        if (t == "SHIELD_REQUIRES" && j + 1 < toks.size() &&
            toks[j + 1].text == "(") {
          j = match_paren(toks, j + 1) + 1;
          continue;
        }
        ++j;
        continue;
      }
      if (t == ":" && !init_list) {  // constructor init list
        init_list = true;
        while (j < toks.size() && toks[j].text != "{") ++j;
        continue;
      }
      break;
    }
    if (j >= toks.size() || toks[j].text != "{") continue;
    const std::size_t body_end = match_brace(toks, j);
    FunctionTaint(file, toks, i, body_end).analyze(findings);
    i = body_end;
  }
}

}  // namespace shield5g::lint
