#!/bin/sh
# Smoke test of the bench driver. The four sub-second experiments run with
# --out; each JSON record must parse, name its experiment, and (for table2
# and detected-errors) carry the paper's detection claims. Unknown
# experiments, --help and unknown options exit 2.
#
#   sh rfbench_smoke.sh <directory holding rfbench>
set -eu
RFBENCH="$1/rfbench"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

for e in table2 detected-errors ablation-checks figure8; do
  "$RFBENCH" "$e" --out "$WORK/$e.json" > "$WORK/$e.txt" 2>&1 || fail "rfbench $e exited $?"
  python3 - "$WORK/$e.json" "$e" <<'PY' || fail "bad JSON record from rfbench $e"
import json, sys
r = json.load(open(sys.argv[1]))
assert r['bench'] == sys.argv[2].replace('-', '_'), r['bench']
if r['bench'] == 'table2':
    # Memcheck sees none of the non-incremental overflows, RedFat all of
    # them, and every benign input runs clean.
    assert len(r['entries']) == 5, r
    for t in r['entries']:
        assert t['memcheck_detected'] == 0, t
        assert t['redfat_detected'] == t['benign_clean'] == t['total'] > 0, t
if r['bench'] == 'detected_errors':
    assert [x['name'] for x in r['rows']] == ['calculix', 'wrf'], r
    for x in r['rows']:
        assert x['redfat_error_sites'] >= x['expected'], x
        assert x['memcheck_reports'] >= x['expected'], x
PY
done

for bad in "no-such-experiment" "--help" "table2 --bogus" "table2 --out"; do
  set +e
  # shellcheck disable=SC2086  # $bad is an experiment name and its flags
  "$RFBENCH" $bad > /dev/null 2> "$WORK/usage.txt"
  got=$?
  set -e
  [ "$got" -eq 2 ] || fail "rfbench $bad: exit $got (want 2)"
  grep -q "heap-throughput" "$WORK/usage.txt" || fail "rfbench $bad did not list experiments"
done
echo "rfbench smoke OK"
