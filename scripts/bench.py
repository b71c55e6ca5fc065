#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 scripts/bench.py N --seed S

One after the other, each in its own interpreter, it runs:

- perfbench/run.py on each of its workloads at seed S and its default run
  length, keeping the JSON result line each run prints last;
- the host-speed probe: the median time of PROBE_RUNS runs of
  perfbench's own probe kernel (`_probe_kernel` in perfbench/worker.py,
  imported, not copied), in a fresh interpreter, taken right before the
  tier-1 run, right before and right after each scale row, and once
  after the last, so the timings in between can be read against the
  host's speed when they ran;
- the tier-1 test suite (see ROADMAP.md), timing its wall clock, with
  pytest's --durations=0, keeping the seconds of each acceptance
  criterion (its setup, call and teardown as pytest reports them, which
  leaves out phases under 5 ms) by the criterion's number;
- scripts/bench_mul.py, keeping its timing rows in microseconds;
- COLD_RUNS fresh interpreters that each time, inside themselves,
  `import qburge, qburge.cli, qburge.verify` and the growth of their
  ru_maxrss over it, keeping the medians and the PYTHONDONTWRITEBYTECODE
  they ran with (when it is set, every run compiles the sources again);
- the scale rows, SCALE: each `qburge verify` argv SCALE_RUNS times, the
  rows taken in turn (all rows once, then again), each run in a fresh
  interpreter that reports its own wall time, its own peak ru_maxrss
  (RUSAGE_SELF: RUSAGE_CHILDREN would keep the largest of every earlier
  child, the perfbench runs among them) and the checks and failed checks
  of its JSON report. Next to its raw wall time each run gets the probes
  taken right before and after it and its wall time scaled to perfbench's
  reference host, wall_s x PROBE_REF_NS / (the mean of the two probes),
  as perfbench scales its own times; scaled rows of two points compare
  where raw ones do not. The host's speed can move during a run, which
  the two probes do not see, so a row reports the median of its runs'
  scaled times and their min-max spread, with every run kept. To run
  them alone:

    python3 -c 'from scripts.bench import scale, src_env; print(scale(src_env()))'

It writes them, with the size of each src/qburge/*.py and of all of them
(the code-size side of the trajectory), the interpreter, the CPU count and
the commit, to BENCH_N.json at the root of the repository. A size is given
twice: `src_lines` counts every line, `src_code_lines` only the lines that
hold code, not blanks, comments or docstrings. To print the sizes alone:

    python3 -c 'from scripts.bench import src_sizes; print(src_sizes())'

It changes nothing under perfbench/: it runs it and imports its probe
kernel. Compare two points only when they come from the same host and
seed.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bounded-grid", "single-limit", "campaign")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
COLD_RUNS = 7
SCALE_RUNS = 3
# run in a fresh interpreter: the import's time in ms and ru_maxrss growth in KB
COLD_IMPORT = """\
import resource, time
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
import qburge, qburge.cli, qburge.verify
ms = (time.perf_counter() - t0) * 1000
print(ms, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss)
"""
# the scale rows: `qburge verify` argvs at sizes where the algorithms, not
# the call overhead, set the time
SCALE = ("--suite thmmain --a-max 8 --lm-max 16",
         "--suite thmmain --a-max 8 --lm-max 20",
         "--suite thmmain2 --a-max 8 --lm-max 20",
         "--suite even --a-max 8 --lm-max 20",
         "--suite hookp --lm-max 10")
# run in a fresh interpreter on `verify` and a scale row's argv: the wall
# time in s and peak ru_maxrss in KB of the whole run, from before the
# import, and the checks and failed checks of its JSON report
SCALE_RUN = """\
import json, os, resource, sys, tempfile, time
t0 = time.perf_counter()
from qburge import cli
fd, out = tempfile.mkstemp(suffix=".json")
os.close(fd)
try:
    try:
        cli.main([*sys.argv[1:], "--format", "json", "--out", out])
    except SystemExit:  # 1 on a failed check: the report counts them
        pass
    wall = time.perf_counter() - t0
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out) as fh:
        reports = json.load(fh)
finally:
    os.unlink(out)
print(json.dumps({"wall_s": round(wall, 2), "maxrss_kb": kb,
                  "checks": len(reports),
                  "failed": sum(r["status"] != "pass" for r in reports)}))
"""
PROBE_RUNS = 200
# run in a fresh interpreter: the median ns of PROBE_RUNS runs of
# perfbench's probe kernel, and perfbench's reference probe time
PROBE = f"""\
import statistics, sys, time
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
from worker import PROBE_REF_NS, _probe_kernel
took = []
for _ in range({PROBE_RUNS}):
    t0 = time.perf_counter_ns()
    _probe_kernel()
    took.append(time.perf_counter_ns() - t0)
print(statistics.median(took), PROBE_REF_NS)
"""
# a bench_mul row: its label, then the time in microseconds
ROW = re.compile(r"^(.*\S)\s+([0-9.]+) us$")
# a --durations line of an acceptance criterion: seconds, then its number
CRITERION = re.compile(r"^([0-9.]+)s \w+ +tests/test_acceptance\.py::test_criterion_(\d+)_")
# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def run(args, env=None):
    """Run the interpreter on args in the repository root; its stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def code_lines(text):
    """The number of lines of the Python source `text` that hold a token
    other than a comment, leaving out docstrings (the string that opens a
    module, class or function body)."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_sizes():
    """(src_lines, src_code_lines): every line, and the code lines, of each
    src/qburge/*.py by file name, with their totals."""
    texts = {path.name: path.read_text()
             for path in sorted((ROOT / "src" / "qburge").glob("*.py"))}
    sizes = ({name: len(text.splitlines()) for name, text in texts.items()},
             {name: code_lines(text) for name, text in texts.items()})
    for size in sizes:
        size["total"] = sum(size.values())
    return sizes


def cold_import(env):
    """Medians over COLD_RUNS fresh interpreters of the in-child time and
    ru_maxrss growth of importing the package, with the
    PYTHONDONTWRITEBYTECODE they ran with."""
    runs = [run(["-c", COLD_IMPORT], env).split() for _ in range(COLD_RUNS)]
    return {"runs": COLD_RUNS,
            "import_ms": round(statistics.median(float(ms) for ms, _ in runs), 2),
            "maxrss_growth_kb": statistics.median(int(kb) for _, kb in runs),
            "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE")}


def src_env():
    """The environment with the repository's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def scale(env):
    """The scale rows by argv, each run SCALE_RUNS times in turn with the
    other rows, every run in its own interpreter under env with the probes
    right before and after it and its wall time scaled by them to
    perfbench's reference host. A row holds its runs, the median of their
    scaled times and its spread [min, max], the largest ru_maxrss and the
    most failed checks of its runs, and their number of checks."""
    runs = {argv: [] for argv in SCALE}
    for _ in range(SCALE_RUNS):
        for argv in SCALE:
            before, ref = probe()
            out = run(["-c", SCALE_RUN, "verify", *argv.split()], env)
            after, _ = probe()
            row = json.loads(out.strip().splitlines()[-1])
            row["probe_ns"] = [before, after]
            row["wall_s_scaled"] = round(row["wall_s"] * ref * 2 / (before + after), 2)
            runs[argv].append(row)
            print("scale", argv, row, flush=True)
    rows = {}
    for argv, done in runs.items():
        scaled = [row["wall_s_scaled"] for row in done]
        rows[argv] = {"wall_s_scaled": statistics.median(scaled),
                      "wall_s_scaled_spread": [min(scaled), max(scaled)],
                      "maxrss_kb": max(row["maxrss_kb"] for row in done),
                      "checks": done[0]["checks"],
                      "failed": max(row["failed"] for row in done),
                      "runs": done}
    return rows


def probe():
    """(median ns of PROBE_RUNS runs of perfbench's probe kernel, in a
    fresh interpreter; perfbench's reference probe time PROBE_REF_NS)."""
    median, ref = run(["-c", PROBE]).split()
    return float(median), int(ref)


def main(argv=None):
    ap = argparse.ArgumentParser(description="write BENCH_<n>.json")
    ap.add_argument("n", type=int, help="the number of the point")
    ap.add_argument("--seed", type=int, required=True,
                    help="perfbench workload seed")
    args = ap.parse_args(argv)

    env = src_env()
    perfbench = {}
    for workload in WORKLOADS:
        out = run(["perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed)])
        perfbench[workload] = json.loads(out.strip().splitlines()[-1])
        print(workload, json.dumps(perfbench[workload]["metrics"]), flush=True)

    probe_before, probe_ref = probe()
    print("probe before tier-1", probe_before, flush=True)

    started = time.perf_counter()
    tests = run([*TIER1, "--durations=0"], env)
    criteria = {}
    for line in tests.splitlines():
        m = CRITERION.match(line)
        if m:
            criteria[m.group(2)] = round(criteria.get(m.group(2), 0) + float(m.group(1)), 2)
    tier1 = {"wall_s": round(time.perf_counter() - started, 2),
             "summary": tests.strip().splitlines()[-1],
             "criteria_s": dict(sorted(criteria.items(), key=lambda kv: int(kv[0])))}
    print("tier-1", tier1, flush=True)

    rows = {}
    for line in run(["scripts/bench_mul.py"], env).splitlines():
        m = ROW.match(line)
        if m:
            rows[" ".join(m.group(1).split())] = float(m.group(2))

    cold = cold_import(env)
    print("cold import", cold, flush=True)

    rows_scale = scale(env)

    probe_after, _ = probe()
    print("probe after scale", probe_after, flush=True)

    src_lines, src_code_lines = src_sizes()

    point = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpus": os.cpu_count(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "scripts")),
        "seed": args.seed,
        "perfbench": perfbench,
        "tier1": tier1,
        "bench_mul_us": rows,
        "cold_import": cold,
        "scale": rows_scale,
        "probe": {"runs": PROBE_RUNS, "ref_ns": probe_ref,
                  "before_tier1_ns": probe_before, "after_scale_ns": probe_after},
        "src_lines": src_lines,
        "src_code_lines": src_code_lines,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
