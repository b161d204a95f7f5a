#!/usr/bin/env bash
# CI entry point: configure, build, and run the full test suite.
#
#   scripts/ci.sh             # everything (tier-1, unchanged invocation)
#   scripts/ci.sh -L unit     # extra args are passed to ctest, e.g. one
#                             # label tier (unit | integration | slow)
#
# Additional stages, each in its own build directory so sanitizer and
# lint artifacts never contaminate the tier-1 build:
#
#   scripts/ci.sh analyze     # shield_analyze unit suites (lint_test,
#                             # analyze_test: ctest -L lint) and fixture
#                             # self-test, then all seven rule families
#                             # over src/ bench/ tests/ tools/, gated on
#                             # the checked-in baseline (new findings
#                             # only), JSON mode self-validated,
#                             # audit-annotation counts and declassify
#                             # call sites pinned
#   scripts/ci.sh asan        # AddressSanitizer over the unit suite
#   scripts/ci.sh ubsan       # UBSanitizer over the unit suite
#   scripts/ci.sh tsan        # ThreadSanitizer over the MonteCarlo
#                             # suite (the serving plane and the state
#                             # shard workers share: comb cache, stats
#                             # registry) and the RunShards suite (the
#                             # fork-join's claim and exception paths)
#   scripts/ci.sh digest-parity # bit-identity matrix: kernel_parity
#                             # and the fe25519 range tests under both
#                             # crypto backends (failing if the IFMA
#                             # ladder's or comb's parity test, or any
#                             # Fe25519.Ifma* range test, skipped on a
#                             # host and compiler that support them),
#                             # then the scaling bench's per-case digests
#                             # at 1 and 2 shard workers and with the
#                             # scalar crypto backend, each diffed
#                             # byte-for-byte against the default
#                             # sequential reference, and the scalar
#                             # pass against the checked-in golden file,
#                             # then the paper benches' scalar-backend
#                             # stdout against their golden files
#                             # (co-located fast path on vs off is the
#                             # tier-1 Determinism suite's job)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

stage="${1:-}"
case "$stage" in
  analyze)
    build="${BUILD_DIR:-$repo/build-lint}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shield_analyze lint_test analyze_test \
          -j "$jobs"
    # The analyzer's own unit suites, then the fixture self-test: every
    # seeded violation in every rule family must be flagged, nothing
    # beyond them.
    ctest --test-dir "$build" --output-on-failure -L lint
    analyze="$build/tools/shield_analyze/shield_analyze"
    "$analyze" --self-test "$repo/tools/shield_analyze/fixtures"
    # Full-tree scan, relative paths so the baseline keys are portable.
    (cd "$repo" && "$analyze" --baseline tools/shield_analyze/baseline.txt \
         src bench tests tools)
    # JSON mode: the binary self-validates the document before printing;
    # the greps re-prove schema + verdict from the emitted bytes.
    json="$(cd "$repo" && "$analyze" --json \
            --baseline tools/shield_analyze/baseline.txt \
            src bench tests tools)"
    echo "$json" | grep -q '"schema":"shield5g.analyze.v1"'
    echo "$json" | grep -q '"clean":true'
    # The audited-annotation surface over shipped code must not grow
    # silently: same discipline as the declassify pin below.
    counts="$(cd "$repo" && "$analyze" --audit-counts src bench \
              | grep -v ': clean')"
    expected="$(printf 'ct-audited=3\ndet-audited=2\nlock-audited=0\nlint-audited=0')"
    if [ "$counts" != "$expected" ]; then
      echo "analyze: audited-annotation counts changed:" >&2
      diff <(echo "$expected") <(echo "$counts") >&2 || true
      exit 1
    fi
    # The secret-taint audit surface must not grow: exactly the blessed
    # declassify call sites (sbi.h hex dump, UDM provisioning + unseal).
    sites="$(grep -rn 'declassify(' "$repo/src" --include='*.cpp' \
             --include='*.h' | grep -v 'common/secret' \
             | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' | wc -l)"
    if [ "$sites" -ne 3 ]; then
      echo "analyze: declassify call sites changed (found $sites, want 3)" >&2
      exit 1
    fi
    echo "analyze: OK"
    ;;
  asan|ubsan)
    san=address
    [ "$stage" = ubsan ] && san=undefined
    build="${BUILD_DIR:-$repo/build-$stage}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DSHIELD5G_SANITIZE="$san"
    cmake --build "$build" -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -j "$jobs" -L unit
    ;;
  tsan)
    build="${BUILD_DIR:-$repo/build-tsan}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DSHIELD5G_SANITIZE=thread
    cmake --build "$build" --target montecarlo_test sim_test -j "$jobs"
    ctest --test-dir "$build" --output-on-failure \
          -R '^(MonteCarlo|RunShards)\.'
    ;;
  digest-parity)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    paper_benches="table2_overhead table3_sgx_stats fig7_enclave_load
                   e2e_session_setup"
    # shellcheck disable=SC2086  # one target per word
    cmake --build "$build" --target kernel_parity_test fe25519_test \
          shard_scaling $paper_benches -j "$jobs"
    # Bit-identity across crypto dispatch: the parity suite (random
    # scalars/points incl. twist and u=0, RFC 7748 vectors, op-count
    # parity) and the field range tests (the safegcd inversion, and the
    # IFMA ops at the edges of their domains) must pass with the backend
    # pinned either way.
    parity_log="$build/kernel_parity_accel.txt"
    for backend in scalar accel; do
      SHIELD5G_CRYPTO_BACKEND=$backend "$build/tests/kernel_parity_test" \
        | tee "$build/kernel_parity_$backend.txt"
      SHIELD5G_CRYPTO_BACKEND=$backend "$build/tests/fe25519_test" \
        | tee "$build/fe25519_$backend.txt"
    done
    # The IFMA kernels must not go untested silently. On a host whose
    # /proc/cpuinfo lists avx512ifma, built by a compiler that accepted
    # -mavx512ifma, a skipped IFMA test means CPUID/XCR0 detection
    # regressed: the accelerated path would fall back to the 51-bit
    # ladder and the portable comb, and mul4's range edges would go
    # unchecked, with every other check green.
    if grep -qw avx512ifma /proc/cpuinfo 2>/dev/null \
       && grep -qx 'SHIELD5G_COMPILER_HAS_MAVX512IFMA:INTERNAL=1' \
            "$build/CMakeCache.txt"; then
      for parity_test in X25519IfmaLadderMatchesScalarLadder \
                         X25519IfmaCombMatchesPortableComb; do
        if grep -q "^\[  SKIPPED \] KernelParity\.$parity_test" \
             "$parity_log"; then
          echo "digest-parity: IFMA host and compiler, but" \
               "KernelParity.$parity_test was skipped" >&2
          exit 1
        fi
      done
      for backend in scalar accel; do
        if grep -q '^\[  SKIPPED \] Fe25519\.Ifma' \
             "$build/fe25519_$backend.txt"; then
          echo "digest-parity: IFMA host and compiler, but an" \
               "Fe25519.Ifma* test was skipped ($backend backend)" >&2
          exit 1
        fi
      done
    fi
    # Every wall-clock-only choice must be invisible in virtual time:
    # per-case digests (trace hashes, counters, latency sample bit
    # patterns) byte-equal across shard worker counts and crypto
    # backends. The binary already fails on a
    # worker-count divergence; the cmp below re-proves it from the
    # emitted artifacts, so a bug in its own comparison cannot mask a
    # determinism break.
    digests="$build/parity_digests"
    rm -f "$digests"_*.txt
    run_scaling() {  # $1 = tag, $2 = worker list
      "$build/bench/shard_scaling" --smoke --workers "$2" \
          --digest "${digests}_$1" "$build/BENCH_scaling_$1.json"
    }
    run_scaling default 1,2
    grep -q '"schema":"shield5g.bench.shard_scaling.v1"' \
      "$build/BENCH_scaling_default.json"
    grep -q '"deterministic":true' "$build/BENCH_scaling_default.json"
    SHIELD5G_CRYPTO_BACKEND=scalar run_scaling scalar 1
    for f in "$digests"_*.txt; do
      cmp "${digests}_default_seq.txt" "$f"
    done
    # Across commits: the scalar pass must also equal the golden file
    # that tier-1's golden_shard_scaling_smoke test holds the default
    # backend to.
    diff -u "$repo/tests/golden/shard_scaling_smoke.txt" \
      "${digests}_scalar_seq.txt"
    # The paper metrics' golden files hold under the scalar backend too.
    paper_bins=""
    for bench in $paper_benches; do
      paper_bins="$paper_bins $build/bench/$bench"
    done
    # shellcheck disable=SC2086  # one binary per word
    SHIELD5G_CRYPTO_BACKEND=scalar sh "$repo/tests/golden_paper.sh" \
      "$repo/tests/golden" "$build/golden_paper_scalar" $paper_bins
    echo "digest-parity: OK"
    ;;
  *)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-Release}"
    cmake --build "$build" -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"
    ;;
esac
