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
#   scripts/ci.sh lint        # shield_analyze unit suites + fixture
#                             # self-test (lint_test, analyze_test)
#   scripts/ci.sh analyze     # all seven rule families over src/ bench/
#                             # tests/ tools/, gated on the checked-in
#                             # baseline (new findings only), JSON mode
#                             # self-validated, audit-annotation counts
#                             # and declassify call sites pinned
#   scripts/ci.sh tidy        # clang-tidy over compile_commands.json
#                             # with the repo .clang-tidy (concurrency-*
#                             # included), gated on
#                             # scripts/tidy_baseline.txt; skips cleanly
#                             # when clang-tidy is not installed
#   scripts/ci.sh asan        # AddressSanitizer over the unit suite
#   scripts/ci.sh ubsan       # UBSanitizer over the unit suite
#   scripts/ci.sh tsan        # ThreadSanitizer over the Monte Carlo
#                             # host-thread driver and the shard-pool
#                             # shared state (comb cache, stats registry)
#   scripts/ci.sh digest-parity # bit-identity matrix: kernel_parity
#                             # under both crypto backends, then the
#                             # scaling bench's per-case digests at 1 and
#                             # 2 shard workers and with the scalar
#                             # crypto backend, each diffed byte-for-byte
#                             # against the default sequential reference
#                             # (co-located fast path on vs off is the
#                             # tier-1 Determinism suite's job)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

stage="${1:-}"
case "$stage" in
  lint)
    build="${BUILD_DIR:-$repo/build-lint}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shield_analyze lint_test analyze_test \
          -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -L lint
    ;;
  analyze)
    build="${BUILD_DIR:-$repo/build-lint}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shield_analyze -j "$jobs"
    analyze="$build/tools/shield_analyze/shield_analyze"
    # Fixture self-test first: every seeded violation in every rule
    # family must be flagged, nothing beyond them.
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
    expected="$(printf 'ct-audited=5\ndet-audited=3\nlock-audited=0\nlint-audited=0')"
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
  tidy)
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "tidy: clang-tidy not installed, skipping"
      exit 0
    fi
    build="${BUILD_DIR:-$repo/build-tidy}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    baseline="$repo/scripts/tidy_baseline.txt"
    current="$build/tidy_findings.txt"
    # Normalized fingerprints (file, check, message — no line numbers)
    # so unrelated edits above a grandfathered finding do not churn the
    # baseline; mirrors the shield_analyze baseline keys.
    (cd "$repo" && find src tools/shield_analyze -name '*.cpp' -print0 \
       | xargs -0 -n 8 -P "$jobs" clang-tidy -p "$build" --quiet 2>/dev/null \
       || true) \
      | sed -n 's|^'"$repo"'/\([^:]*\):[0-9]*:[0-9]*: warning: \(.*\) \(\[[a-z0-9.,-]*\]\)$|\1\t\3\t\2|p' \
      | sort -u > "$current"
    if [ "${2:-}" = "--write-baseline" ]; then
      { grep '^#' "$baseline"; cat "$current"; } > "$baseline.tmp"
      mv "$baseline.tmp" "$baseline"
      echo "tidy: baseline rewritten ($(wc -l < "$current") findings)"
      exit 0
    fi
    new="$(comm -13 <(grep -v '^#' "$baseline" | sort -u) "$current")"
    if [ -n "$new" ]; then
      echo "tidy: new clang-tidy findings (not in scripts/tidy_baseline.txt):" >&2
      echo "$new" >&2
      exit 1
    fi
    echo "tidy: OK ($(wc -l < "$current") findings, all baselined)"
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
    cmake --build "$build" --target montecarlo_test -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -R '^MonteCarlo'
    ;;
  digest-parity)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target kernel_parity_test shard_scaling \
          -j "$jobs"
    # Bit-identity across crypto dispatch: the parity suite (random
    # scalars/points incl. twist and u=0, RFC 7748 vectors, op-count
    # parity) must pass with the backend pinned either way.
    SHIELD5G_CRYPTO_BACKEND=scalar "$build/tests/kernel_parity_test"
    SHIELD5G_CRYPTO_BACKEND=accel "$build/tests/kernel_parity_test"
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
    echo "digest-parity: OK"
    ;;
  *)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-Release}"
    cmake --build "$build" -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"
    ;;
esac
