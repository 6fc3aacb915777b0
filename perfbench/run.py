#!/usr/bin/env python3
"""Build and run one workload of the benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload road-apps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload road-apps --seed 1 --fingerprint

Run from the repository root. The last line of standard output is the
result object; build output and human-readable tables go to stderr.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("road-apps", "social-apps", "serve-mixed")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "ordered_serve.exe")
WORK = ".perfbench-work"
# Input generation and each fingerprint process.
STEP_TIMEOUT_S = 170


def run_timeout(seconds):
    """A measured run: repeated set-ups, the window, the reply drain and
    the oracle checks, with room to spare."""
    return 2 * seconds + 110


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(argv, timeout, capture=False):
    """Runs argv in its own process group and, whatever happens, kills and
    waits for every process left in that group (the server included)."""
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(argv[:3])} timed out after {timeout} s", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--fingerprint",
        action="store_true",
        help="apps workloads: check on one worker that every run's work "
        "counters repeat exactly across two processes with the same seed",
    )
    args = ap.parse_args()

    if args.workload == "all":
        # One result line per workload, in order; fails if any run fails.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for w in WORKLOADS
        ]
        sys.exit(max(codes))

    for need in ("dune-project", "BENCHMARK.json", "lib/service/core.ml", "bin/ordered_serve.ml",
                 "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    # The shared dune cache would write outside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/ordered_serve.exe"],
        stdout=sys.stderr,
        env={**os.environ, "DUNE_CACHE": "disabled"},
    )
    if build.returncode != 0:
        fail("build failed", 1)

    # Inputs are generated once per (workload, seed); other seeds' inputs
    # of the same workload are removed to bound disk use.
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    if os.path.isdir(WORK):
        for d in os.listdir(WORK):
            if d.startswith(args.workload + "-") and os.path.join(WORK, d) != work:
                shutil.rmtree(os.path.join(WORK, d))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    if not os.path.exists(os.path.join(work, "done")):
        os.makedirs(work, exist_ok=True)
        code, _ = run_group([BENCH, "gen"] + common, STEP_TIMEOUT_S)
        if code != 0:
            fail("input generation failed", 1)
        open(os.path.join(work, "done"), "w").close()

    if args.fingerprint:
        if args.workload == "serve-mixed":
            fail("--fingerprint applies to the apps workloads")
        outs = [run_group([BENCH, "fingerprint"] + common, STEP_TIMEOUT_S, capture=True) for _ in range(2)]
        if any(code != 0 for code, _ in outs):
            fail("fingerprint run failed", 1)
        first, second = (out.decode().splitlines() for _, out in outs)
        for line in first:
            print(line, file=sys.stderr)
        if first != second:
            fail(f"work counters differ between two runs: {len(set(first) ^ set(second))} lines", 1)
        print(f"fingerprint: all {len(first)} runs repeat exactly", file=sys.stderr)
        return

    code, _ = run_group(
        [BENCH, "run"] + common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--server", SERVER],
        run_timeout(args.seconds),
    )
    sys.exit(code)


if __name__ == "__main__":
    main()
