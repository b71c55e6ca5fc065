"""The qburge benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for the strata):

- bounded-grid: the cases main, main_tree, recip, shifted and even over
  coprime a <= 8, L, M <= 8 (acceptance criteria 1-5), plus a fixed
  stratum of deep pairs (d = 12). Dominated by the DFS lattice sums and L0
  products; the bosonic and tree_walk sides are the in-workload bypass.
- single-limit: the four G = single-limit identities over coprime a <= 8
  (criterion 7). Its hotspot is eval_limit_L; the g_poly side is the
  bypass.
- campaign: `qburge verify --format json` over all nine suites at the
  default budget, in-process: thousands of small checks with heavy memo
  reuse, the oracles, positivity scans and report rendering. It has no
  inputs to draw, so the seed does not change it.

A run is a sequence of rounds. Each round is a fresh interpreter (so every
memo cache starts cold) that imports qburge from ./src, builds one part of
the seed's input set (workloads.py) and issues its checks closed-loop, one
after the other. An untraced run goes through the parts in cycles, each
part once per cycle, for about --seconds (the last cycle ends at most
half a cycle late) and at least MIN_ROUNDS rounds. Before each untraced
round, SETUP_PROBES more interpreters only set up and stop.

With --trace 0 the run prints the end-to-end metrics: checks_per_s
(checks / measured wall time), check_ms_p50 and check_ms_p99 (per-check
wall time, pooled over rounds), setup_s (median over rounds and probes of
the time from starting the interpreter to the first check: importing
qburge and building the inputs) and peak_rss_mb (median over rounds of
the round's peak resident memory). Every time is scaled to a reference
host speed by the probes worker.py runs during the round, so the host's own
swings in speed cancel; the info line keeps the raw checks_per_s and each
round's speed factor. The share of failed checks, `failed / attempted`,
is in the result line; it is not a metric because it is 0 whenever the
program is correct.

With --trace 1 rounds of part 0 alternate untraced and traced (tracer.py). The run
prints the per-layer metrics of one traced round (times are medians over
the traced rounds) and trace_overhead, the traced over the untraced round
wall time minus 1. Every exact count must repeat between traced rounds.

Every check must pass exactly, every round of a part must give the same
digest of its results (a traced round the same as an untraced one), and
at seed 0 each part's digest must equal the one in reference.json.

The last stdout line is the JSON result; the lines before it record the
interpreter, CPU count, source revision, seed and input sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = HERE / ".work"
REFERENCE_SEED = 0

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_PROBES = 3
RUN_LIMIT_S = 170       # the whole run, rounds included, ends before this

WORKLOADS = ("bounded-grid", "single-limit", "campaign")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="qburge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_revision():
    """Git commit when the tree is a checkout, and a hash of the program's
    sources either way."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qburge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, h.hexdigest()


def run_round(workload, seed, part, mode, deadline):
    """One fresh interpreter running worker.py in `mode` on one part of the
    seed's inputs; returns its result with setup_s added."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(part), mode,
           str(WORK_DIR)]
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"round of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = (result["setup_end_ns"] - spawned) / 1e9
    result["setup_s"] = result["raw_setup_s"] / result["setup_factor"]
    result["part"] = part
    return result


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(rounds, setups):
    """Times scaled to the reference host speed (worker.py)."""
    times_ms = [t / 1e6 for r in rounds for t in r["scaled_ns"]]
    return {
        "checks_per_s": (sum(r["checks"] for r in rounds)
                         / sum(r["scaled_wall_s"] for r in rounds), "1/s"),
        "check_ms_p50": (statistics.median(times_ms), "ms"),
        "check_ms_p99": (percentile(times_ms, 99), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(untraced, traced, problems):
    """Counts of the first traced round, which every traced round must
    repeat exactly; times as medians over the traced rounds."""
    from tracer import EXACT_KINDS, REPORTED
    first = traced[0]["layers"]
    out = {}
    for name, kind, _ in REPORTED:
        if kind in EXACT_KINDS:
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced rounds: {sorted(seen)}")
            out[name] = (first[name], "count")
        else:
            out[name] = (statistics.median(r["layers"][name] for r in traced), "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["traced_round_s"] = (traced_wall, "s")
    out["trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qburge" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src' / 'qburge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    from workloads import PARTS
    parts = 1 if args.workload == "campaign" else PARTS
    WORK_DIR.mkdir(exist_ok=True)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    untraced, traced, setups = [], [], []
    # an untraced run issues every part once per cycle; a traced run
    # repeats part 0, so its counts can be compared, one round per cycle
    cycle = 1 if args.trace else parts
    last_cycle = 0.0
    while True:
        done = len(untraced) + len(traced)
        if done % cycle == 0:
            # start another cycle only if it would end less than half a
            # cycle past --seconds
            now = time.monotonic()
            if done:
                last_cycle = now - cycle_start
            if args.trace:
                enough = (len(untraced) >= MIN_TRACED_ROUNDS
                          and len(traced) >= MIN_TRACED_ROUNDS)
            else:
                enough = len(untraced) >= MIN_ROUNDS
            if enough and now - started + last_cycle / 2 >= args.seconds:
                break
            cycle_start = now
        trace_next = args.trace and len(traced) < len(untraced)
        part = 0 if args.trace else len(untraced) % parts
        if not args.trace:
            setups += [run_round(args.workload, args.seed, part, "setup",
                                 deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
        result = run_round(args.workload, args.seed, part,
                           "trace" if trace_next else "run", deadline)
        (traced if trace_next else untraced).append(result)
        setups.append(result["setup_s"])
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass

    rounds = untraced + traced
    problems = [e for r in rounds for e in r["errors"]]
    attempted = sum(r["checks"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for part in range(parts):
        digests = {r["digest"] for r in rounds if r["part"] == part}
        if len(digests) > 1:
            problems.append(f"rounds of part {part} disagree on the result "
                            f"digest: {sorted(digests)}")
            failed = attempted
    want = reference.get(args.workload)
    if want and (args.workload == "campaign" or args.seed == REFERENCE_SEED):
        bad = [r for r in rounds if r["digest"] != want[r["part"]]]
        if bad:
            problems.append(f"digest differs from reference.json for parts "
                            f"{sorted({r['part'] for r in bad})}")
            failed = max(failed, sum(r["checks"] for r in bad))

    metrics = (per_layer(untraced, traced, problems) if args.trace
               else end_to_end(untraced, setups))
    commit, src_hash = source_revision()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit, "src_sha256": src_hash,
        "rounds": len(rounds), "parts": [r["part"] for r in rounds],
        "checks_per_round": [r["checks"] for r in rounds],
        "round_wall_s": [round(r["wall_s"], 3) for r in rounds],
        "host_factor": [round(r["factor"], 3) for r in rounds],
        "raw_checks_per_s": (sum(r["checks"] for r in untraced)
                             / sum(r["wall_s"] for r in untraced)),
        "size": rounds[0]["size"], "digests": sorted({r["digest"] for r in rounds}),
        "fail_ratio": failed / attempted,
    }
    print("# " + json.dumps(info, sort_keys=True))
    for name in sorted({m for r in traced for m in r["missing"]}):
        print(f"# note: the tracer found no {name} to wrap; its metrics read 0")
    for p in problems:
        print(f"# problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
