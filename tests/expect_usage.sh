#!/bin/sh
# Passes only when the command exits 2 and writes a usage line to
# stderr: the contract for a rejected command-line argument.
#
#   sh tests/expect_usage.sh <binary> <args...>
err="$("$@" 2>&1 >/dev/null)"
rc=$?
case "$err" in
  usage:*)
    [ "$rc" -eq 2 ] && exit 0
    echo "expect_usage: exit status $rc, want 2" >&2
    ;;
  *)
    echo "expect_usage: exit status $rc and no usage line:" >&2
    echo "$err" >&2
    ;;
esac
exit 1
