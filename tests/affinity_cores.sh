#!/bin/sh
# The scaling bench must report the CPUs its shard workers can run on
# (the process's affinity mask), not the host's: pinned to one CPU, it
# prints "cores=1" and writes "cores":1. Exits 77, which ctest reports
# as skipped, when taskset is not installed.
#
#   sh tests/affinity_cores.sh <shard_scaling binary> <out.json>
set -u
command -v taskset >/dev/null 2>&1 || exit 77
# The first CPU of this process's own mask, which may not include CPU 0.
cpu="$(taskset -pc $$ | sed 's/.*: *//; s/[,-].*//')"
out="$(taskset -c "$cpu" "$1" --smoke --workers 1 "$2")" || exit 1
status=0
if ! echo "$out" | grep -q 'host cores=1 '; then
  echo "affinity_cores: stdout does not say host cores=1:" >&2
  echo "$out" | grep 'cores=' >&2
  status=1
fi
if ! grep -q '"cores":1[,}]' "$2"; then
  echo "affinity_cores: $2 does not say \"cores\":1" >&2
  status=1
fi
exit $status
