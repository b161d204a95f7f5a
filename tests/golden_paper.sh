#!/bin/sh
# Golden paper metrics: runs each paper bench at its default count and
# diffs its stdout against tests/golden/<bench>.txt, printing every line
# that differs. Table II's ratios, Table III's EENTER/EEXIT counts,
# Fig. 7's load time and the §V-B4 setup split are virtual time, so
# they are byte-identical on every host, build type and crypto backend.
#
#   sh tests/golden_paper.sh <golden dir> <output dir> <bench binary>...
#
# A change that moves virtual time on purpose regenerates a file with
#
#   build/bench/<bench> > tests/golden/<bench>.txt
#
# and says in CHANGES.md which lines moved and why.
set -u
golden="$1"
out="$2"
shift 2
mkdir -p "$out"
status=0
for bench in "$@"; do
  name="$(basename "$bench")"
  if ! "$bench" > "$out/$name.txt"; then
    echo "golden_paper: $name failed" >&2
    status=1
  elif ! diff -u "$golden/$name.txt" "$out/$name.txt"; then
    echo "golden_paper: $name differs from $golden/$name.txt" >&2
    status=1
  fi
done
exit $status
