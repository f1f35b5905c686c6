#!/bin/sh
# The full local gate, in CI order: compile everything, run the static-analysis
# lint sweep, run the test suite and the goldens, then check the committed
# model-cycle record.
#
#   bin/check.sh
#
# Exits non-zero on the first failing stage. Prints the wall seconds each
# stage took, and the total, so a gate that slows down shows up.
set -eu

cd "$(dirname "$0")/.."

start=$(date +%s)
lap=$start
# Print the seconds since the previous stage ended.
elapsed() {
  now=$(date +%s)
  echo "   ($((now - lap)) s)"
  lap=$now
}

# Compile and link the installed executables only: the default alias
# would also build every gate's rule outputs here, and the gate stages
# below would then time nothing. The stages build what else they run.
echo "== dune build @install =="
dune build @install
elapsed

echo "== dune build @lint =="
dune build @lint
elapsed

echo "== dune runtest =="
dune runtest
elapsed

echo "== dune build @absint (translation validation + missed-guard golden) =="
dune build @absint
elapsed

echo "== dune build @policy (specialization-policy census golden) =="
dune build @policy
elapsed

echo "== dune build @chaos (fault-injection fuzz smoke) =="
dune build @chaos
elapsed

echo "== dune build @parallel (experiments golden + pool determinism: --jobs 4 == --jobs 1) =="
dune build @parallel
elapsed

echo "== dune build @profile (attribution balance + trace-event export + trace/report digest golden) =="
dune build @profile
elapsed

echo "== dune build @serve (overload smoke: invariants + summary golden + --jobs determinism) =="
dune build @serve
elapsed

echo "== dune build @bg (background compilation: --jobs identity + off-identity + overflow) =="
dune build @bg
elapsed

echo "== dune build @obs (observability: off/on byte-identity + artifact determinism + flow balance + digest golden) =="
dune build @obs
elapsed

echo "== bench check-model (model cycles vs committed BENCH_wall.json) =="
dune exec bench/main.exe -- check-model
elapsed

echo "check: all stages passed in $(($(date +%s) - start)) s"
