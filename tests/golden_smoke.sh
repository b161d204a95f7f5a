#!/bin/sh
# Golden virtual-time contract: runs the scaling bench's smoke sweep
# sequentially and at 1 and 2 shard workers, and diffs each pass's 36
# per-case digest lines against tests/golden/shard_scaling_smoke.txt,
# printing every line that differs.
#
#   sh tests/golden_smoke.sh <shard_scaling binary> <golden file> <prefix>
#
# A change that moves virtual time on purpose regenerates the golden
# file with the same command and a copy of its sequential output:
#
#   build/bench/shard_scaling --smoke --digest build/smoke build/smoke.json
#   cp build/smoke_seq.txt tests/golden/shard_scaling_smoke.txt
#
# and says in CHANGES.md which lines moved and why.
set -u
bench="$1"
golden="$2"
prefix="$3"
rm -f "${prefix}"_*.txt
if ! "$bench" --smoke --workers 1,2 --digest "$prefix" "$prefix.json" \
     >/dev/null; then
  echo "golden_smoke: $bench failed" >&2
  exit 1
fi
status=0
for pass in seq w1 w2; do
  if ! diff -u "$golden" "${prefix}_$pass.txt"; then
    echo "golden_smoke: ${prefix}_$pass.txt differs from $golden" >&2
    status=1
  fi
done
exit $status
