"""Benchmark of clusterint's certified pipelines, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The work runs in child processes
(``bench/harness.py``), one after another, each single-threaded.  The seed
sets only the random points of the numeric rank checks.

``--trace 0`` times set-up (import plus input construction) in
SETUP_REPEATS fresh processes and reports the median.  One more process
then starts whole pipeline instances until S seconds have passed, and
reports their mean time and the process's peak resident memory.

Times are reported at a fixed host speed.  On a shared host the same code
runs up to twice as slow while other tenants are busy, in spells from under
a second to minutes, longer than a run.  So the benchmark also times a fixed reference
kernel of its own (``harness.reference_kernel``): every ``SAMPLE_EVERY_S``
seconds during the instances, from a signal handler whose time is left out
of the instance times, and before and after each set-up.  Each time is
scaled by REFERENCE_S over the reference time measured with it: the result
is the time on a host where the kernel takes REFERENCE_S.  ``total_s`` is
the mean instance time over the mean reference time.  Means, not medians:
the host flips between fast and slow within a second, so the samples fall
in two clusters and their median jumps between them, while the mean of
evenly spaced samples is the slowdown averaged over the run, which is what
the instances' mean time suffers.  The unscaled times and the reference
times are in the provenance line.

``--trace 1`` runs one untraced and one traced instance, each in its own
process, and reports the traced per-layer metrics and the ratio of the two
instance times, all times at the reported host speed.  The tracer leaves
the sampling time out of its spans.

The last line of standard output is the result, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the provenance.  A failed instance (an exception, a refused
certificate or a digest that differs from ``bench/golden.json``) counts in
``failed``.  Without the package sources in ``src/clusterint`` the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import WORKLOADS
from layertrace import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
REFERENCE_S = 0.0047  # the reference kernel's time at the reported host speed
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def harness(args, deadline):
    """Run bench/harness.py to completion; its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "harness.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"harness {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def speed(result):
    """The factor that brings the times of a harness run to the reported
    host speed: REFERENCE_S over its mean reference time."""
    return REFERENCE_S / statistics.mean(result["references"])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "clusterint" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run = ["run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    setups = []
    try:
        if args.trace:
            base = harness(run + ["--max-instances", "1"], deadline)
            traced = harness(run + ["--max-instances", "1", "--trace"], deadline)
            runs = [base, traced]
            units = dict(LAYER_METRICS)
            values = {name: value * speed(traced) if units[name] == "s" else value
                      for name, value in traced["layers"].items()}
            values["trace.overhead_ratio"] = (traced["times"][0] * speed(traced)
                                              / (base["times"][0] * speed(base)))
        else:
            setups = [harness(["setup", "--workload", args.workload], deadline)
                      for _ in range(SETUP_REPEATS)]
            runs = [harness(run, deadline)]
            values = {
                "total_s": statistics.mean(runs[0]["times"]) * speed(runs[0]),
                "setup_s": statistics.median(
                    s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setups),
                "peak_rss_mb": runs[0]["peak_rss_mb"],
            }
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(1 for r in runs for problems in r["problems"] if problems)
    for r in runs:
        for problems in r["problems"]:
            for p in problems:
                print(f"{args.workload}: {p}", file=sys.stderr)
    # the traced instance must reproduce the untraced output exactly
    same_output = len({d for r in runs for d in r["digests"]}) == 1
    if not same_output:
        print(f"{args.workload}: digests differ across instances", file=sys.stderr)

    print(json.dumps({"provenance": {
        **runs[0]["provenance"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "instance_s": [r["times"] for r in runs],
        "reference_s": [r["references"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups],
        "setup_reference_s": [s["reference_s"] for s in setups],
    }}))
    print(json.dumps({
        "correct": failed == 0 and same_output,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
