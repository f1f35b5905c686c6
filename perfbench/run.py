#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The VM and the benchmark executable are
built from source with dune (build output goes to _build/), then the
executable runs the named workload; its last line of standard output is one
JSON object with the metrics. Build logs go to standard error.

--selftest checks that the deterministic metrics repeat exactly (across two
passes and across pool sizes 1 and 2), that a seed regenerates identical
inputs, and that every metric named in BENCHMARK.json is emitted.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "vsbench.exe")
WORKLOADS = ["suite", "web", "serve", "serve_obs"]
# Runs must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the VM sources (dune-project, lib/) are not in this tree")
    try:
        r = subprocess.run(
            # No shared dune cache: the build reads and writes only this tree.
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/vsbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_exe(args, capture=False):
    cmd = [EXE] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    return r


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def inputs_digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("workload:"):
            return next(f for f in line.split() if f.startswith("inputs="))
    return None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = run_exe(["--selftest", "--seed", "3"]).returncode == 0
    commit = ["--commit", source_id()]
    for w in WORKLOADS:
        digests = []
        for seed, trace in [(3, 0), (3, 1), (4, 0)]:
            r = run_exe(["--workload", w, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace)] + commit, capture=True)
            got = list(last_json(r.stdout)["metrics"])
            named = got == want[trace]
            print(f"selftest {w:<10} seed={seed} trace={trace} exit={r.returncode} metrics_as_named={named}")
            if not named:
                print(f"  missing={sorted(set(want[trace]) - set(got))} extra={sorted(set(got) - set(want[trace]))}")
            ok = ok and named and r.returncode == 0
            digests.append(inputs_digest(r.stdout))
        same_seed_same_inputs = digests[0] == digests[1]
        # Another seed draws other inputs (for the suite, another order).
        other_seed_differs = digests[0] != digests[2]
        print(f"selftest {w:<10} same_seed_same_inputs={same_seed_same_inputs} other_seed_differs={other_seed_differs}")
        ok = ok and same_seed_same_inputs and other_seed_differs
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv):
    build()
    if "--selftest" in argv:
        return selftest()
    return run_exe(argv + ["--commit", source_id()]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
