#!/usr/bin/env bash
# Reproduction test of the full_study example. Bad arguments exit 2 with
# an `error:` line before any work is done, and the paper study's
# report.txt matches the golden report byte for byte. Under
# TAXITRACE_UPDATE_GOLDEN=1 (scripts/update_golden.py) the report
# rewrites the golden file instead.
#
#   full_study_test.sh <full_study binary> <golden report>
set -euo pipefail
STUDY="$1"
GOLDEN="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# A count that is not a positive int, a seed that is not an unsigned
# 64-bit integer, and a sixth argument.
for bad in "out paper abc" "out paper 0 3" "out paper 1 -2" \
           "out paper 1 3000000000" "out paper 2 3 notaseed" \
           "out paper 2 3 -1" "out paper 2 3 18446744073709551616" \
           "out paper 1 2 3 extra"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is the argument list
  "$STUDY" $bad > /dev/null 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "^error: " err.txt; then
    echo "expected exit 2 with a message for '$bad', got $rc" >&2
    cat err.txt >&2
    exit 1
  fi
done
test ! -e out

"$STUDY" study > stdout.txt
if [ -n "${TAXITRACE_UPDATE_GOLDEN+set}" ]; then
  cp study/report.txt "$GOLDEN"
  echo "rewrote $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" study/report.txt; then
  echo "full_study report differs from $GOLDEN; if the change is" \
       "intended, run scripts/update_golden.py and review the diff" >&2
  exit 1
fi
echo "full_study report OK"
