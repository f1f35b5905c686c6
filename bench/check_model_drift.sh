#!/bin/sh
# check-model's failure path: in a temporary directory, a copy of the record
# with one row's model_cycles changed must make check-model exit 1 and name
# that row on stderr.
#
#   sh bench/check_model_drift.sh MAIN_EXE RECORD
set -u

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
row=vs.bg_richards_sync
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

sed "/\"$row\"/s/\"model_cycles\": [0-9]*/\"model_cycles\": 1/" "$2" > "$dir/BENCH_wall.json"
cd "$dir"
"$exe" check-model > /dev/null 2> err
rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "\"$row\"" err; then
  echo "check-model drift test: want exit 1 naming $row, got exit $rc:"
  cat err
  exit 1
fi
