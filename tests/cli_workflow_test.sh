#!/usr/bin/env bash
# End-to-end workflow test of the taxitrace_cli binary: generate a map,
# simulate a small fleet, clean, match and analyze, asserting that every
# stage succeeds and produces non-trivial artefacts.
set -euo pipefail
CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate-map elements.csv features.csv 7
test -s elements.csv
test -s features.csv
grep -q "traffic_light" features.csv

"$CLI" simulate elements.csv features.csv trips.csv 1 3 9
test -s trips.csv
# Header plus at least a hundred points.
test "$(wc -l < trips.csv)" -gt 100

"$CLI" clean trips.csv segments.csv | grep -q "rule 1 splits"
test -s segments.csv

# A non-finite number in a trace file is a load error, not input for
# the cleaning stages.
sed '2s/^\([^,]*,[^,]*,[^,]*\),[^,]*,/\1,nan,/' trips.csv > nan_trips.csv
rc=0
"$CLI" clean nan_trips.csv nan_segments.csv > /dev/null 2> err.txt || rc=$?
if [ "$rc" -eq 0 ] || ! grep -q "^error: .*not finite: nan" err.txt; then
  echo "expected an error for a nan timestamp, got $rc" >&2
  cat err.txt >&2
  exit 1
fi

"$CLI" match elements.csv features.csv segments.csv routes.geojson 20 \
  | grep -q "matched"
grep -q "LineString" routes.geojson

"$CLI" analyze segments.csv | grep -q "Mixed model"

# The observability-enabled study prints a reconciled funnel and writes
# the snapshot JSON when asked.
"$CLI" study --metrics-json metrics.json 2 7 | grep -q "transitions.selection"
test -s metrics.json
grep -q '"funnel"' metrics.json
grep -q '"counters"' metrics.json

# Bad ingest options exit 2 with a message instead of aborting or
# being read as 0: a non-numeric lag, and a lag far beyond the bound.
for bad in "--ingest-lag abc" "--ingest-lag 9223372036854775000"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$CLI" study --stream-ingest $bad 1 2 > /dev/null 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "^error: " err.txt; then
    echo "expected exit 2 with a message for 'study $bad', got $rc" >&2
    cat err.txt >&2
    exit 1
  fi
done

# `serve` freezes a study into a snapshot and queries it.
"$CLI" serve 1 2 | grep -q "taxitrace-snapshot/1"

# Unknown flags, a misspelt flag and a count that is not a positive
# integer exit 2 with a message instead of being read as a count or
# skipped.
for bad in "serve --bench 1 2" "study 1 2 --metric-json x.json" \
           "study 1x 2"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is a command and its arguments
  "$CLI" $bad > /dev/null 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "^error: " err.txt; then
    echo "expected exit 2 with a message for '$bad', got $rc" >&2
    cat err.txt >&2
    exit 1
  fi
done
test ! -e x.json

# Unknown commands fail cleanly.
if "$CLI" frobnicate 2>/dev/null; then
  echo "expected failure for unknown command" >&2
  exit 1
fi
echo "cli workflow OK"
