#!/usr/bin/env bash
# Kill-and-resume smoke test for a journaled bench driver.
#
#   tools/resume_smoke.sh <build-dir> <driver>
#
# e.g. `tools/resume_smoke.sh build table2_static_trigger`.  Runs the driver
# once uninterrupted (quick mode) for reference CSVs, then again on one
# sweep thread in the background, and SIGKILLs that run as soon as its
# journal holds one committed line.  Fails unless the killed run was really
# interrupted (it wrote fewer CSVs than the reference), the `--resume` run
# reproduces every reference CSV byte for byte, and no journal is left
# afterwards.  The kill follows the first committed line, not a timer, so a
# host fast enough to finish the sweep first fails the test instead of
# passing it vacuously.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <driver>" >&2
  exit 2
fi
bin="$1/bench/$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
ref="$work/ref"
out="$work/out"

SIMDTS_QUICK=1 SIMDTS_OUT_DIR="$ref" "$bin" > /dev/null

SIMDTS_QUICK=1 SIMDTS_SWEEP_THREADS=1 SIMDTS_OUT_DIR="$out" "$bin" \
  > /dev/null &
pid=$!
for ((i = 0; ; ++i)); do
  if cat "$out"/*.journal 2> /dev/null | grep -q ' ok$'; then break; fi
  if ! kill -0 "$pid" 2> /dev/null || [ "$i" -ge 6000 ]; then
    echo "error: $2 journaled no line before exiting (or within 60 s)" >&2
    exit 1
  fi
  sleep 0.01
done
kill -9 "$pid"
status=0
wait "$pid" || status=$?
count_csvs() { find "$1" -maxdepth 1 -name '*.csv' | wc -l; }
n_ref="$(count_csvs "$ref")"
n_out="$(count_csvs "$out")"
if [ "$status" -ne 137 ] || [ "$n_out" -ge "$n_ref" ]; then
  echo "error: $2 was not interrupted (exit $status, $n_out of $n_ref" \
    "CSVs written)" >&2
  exit 1
fi
committed="$(cat "$out"/*.journal | grep -c ' ok$')"

SIMDTS_QUICK=1 SIMDTS_OUT_DIR="$out" "$bin" --resume > /dev/null
for f in "$ref"/*.csv; do cmp "$f" "$out/$(basename "$f")"; done
test "$(count_csvs "$out")" = "$n_ref"
if ls "$out"/*.journal > /dev/null 2>&1; then
  echo "error: $2 left a journal after resuming" >&2
  exit 1
fi
echo "OK: $2 killed after $committed committed journal line(s);" \
  "the resumed run's $n_ref CSVs are byte-identical"
