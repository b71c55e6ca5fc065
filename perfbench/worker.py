"""One round of a workload, run by run.py in a fresh interpreter so every
memo cache of the program starts cold.

    python3 perfbench/worker.py WORKLOAD SEED PART MODE WORK_DIR

MODE is `run`, `trace` (the same with the tracer installed) or `setup`
(import the program, build the inputs and stop). Prints one JSON object on
its last stdout line. Per-check times are taken here, around each call
into the program, never from the program's own `elapsed_ms`.

On a shared 2-CPU x86-64 VM the host's speed changed by up to 1.9x within
minutes (other tenants share its cores), in wall and CPU time alike, so
identical rounds differed as much. So untraced rounds also run a fixed
pure-Python probe every PROBE_EVERY_NS of wall time, from a timer signal,
and report each check's time scaled to a host that runs the probe in
PROBE_REF_NS: raw time x PROBE_REF_NS / (the check's probe time), where
the check's probe time is the mean of the probes that ran during it when
there are at least PROBE_INSIDE of them, and otherwise the median of the
PROBE_WINDOW probes nearest it. Probes that run during a check are taken
out of its time. The raw times are reported too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE_EVERY_NS = 25_000_000
PROBE_REF_NS = 600_000      # about the probe's median in a round on a 2 GHz x86-64 VM
PROBE_WINDOW = 4
PROBE_INSIDE = 3
_PA = {e: (e * 7919) % 97 + 1 for e in range(24)}
_PB = {e: (e * 104729) % 89 + 1 for e in range(-5, 19)}


def _probe_kernel():
    """Fixed work shaped like the program's own, and never calling it: small
    dict-of-exponents polynomial products. Of the probes tried (also a
    dict and sort over a few megabytes, big-integer products, deep
    recursion, object allocation, and sums of these), this one tracked
    the program's round times best over the three workloads while the
    host's speed changed; the memory-bound one over-reacted most."""
    res = {}
    for _ in range(8):
        for e1, c1 in _PA.items():
            for e2, c2 in _PB.items():
                e = e1 + e2
                res[e] = res.get(e, 0) + c1 * c2
    return res


class Pace:
    """Host-speed probes taken every PROBE_EVERY_NS during one round."""

    def __init__(self):
        self.at = []            # probe end times (perf_counter_ns)
        self.took = []          # probe durations

    def probe(self, *_signal_args):
        # with the collector off the probe's time does not depend on how
        # many objects the program holds; the probe makes no cycles
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        _probe_kernel()
        t1 = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        """Probe from a timer signal while the block runs. The handler runs
        between bytecodes of the main thread, so a probe never splits an
        operation of the program and ends after it started."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        every = PROBE_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, t0, t1):
        """Index range of the probes that ran between t0 and t1."""
        return bisect_right(self.at, t0), bisect_right(self.at, t1)

    def raw(self, t0, t1):
        """Time from t0 to t1 without the probes that ran in it."""
        i, j = self.inside(t0, t1)
        return t1 - t0 - sum(self.took[i:j])

    def factor(self, t0, t1):
        """Host slowness from t0 to t1, relative to the reference host."""
        i, j = self.inside(t0, t1)
        if j - i >= PROBE_INSIDE:
            return statistics.fmean(self.took[i:j]) / PROBE_REF_NS
        n = len(self.took)
        if n == 0:
            return 1.0
        k = bisect_left(self.at, (t0 + t1) // 2)
        lo = max(0, min(k - PROBE_WINDOW // 2, n - PROBE_WINDOW))
        return statistics.median(self.took[lo:lo + PROBE_WINDOW]) / PROBE_REF_NS


def _import_program():
    sys.path.insert(0, str(SRC))
    import qburge
    import qburge.cli
    import qburge.verify
    where = Path(qburge.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"qburge imported from {where}, not from {SRC}")
    return qburge


def _canonical(poly):
    """Coefficients of a Laurent polynomial through its public accessors,
    independent of how the program stores them."""
    lo = poly.valuation()
    if lo is None:
        return "0"
    return repr((lo, [poly.coeff(e) for e in range(lo, poly.degree() + 1)]))


def _run_checks(qburge, checks, tracer):
    """Closed loop over (case id, params): each check is issued after the
    previous one returns. A check evaluates both sides and compares them
    exactly."""
    catalogue = qburge.verify.CATALOGUE
    call = tracer.spanner("verify") if tracer else (lambda fn, p: fn(p))
    digest = hashlib.sha256()
    spans, errors, failed = [], [], 0
    perf_ns = time.perf_counter_ns
    setup_end = time.monotonic_ns()
    start = perf_ns()
    for cid, params in checks:
        t0 = perf_ns()
        try:
            lhs, rhs = call(catalogue[cid].sides, params)
            ok = lhs == rhs
        except Exception as exc:  # a raising check counts as failed
            ok, lhs, rhs = False, None, None
            errors.append(f"{cid} {params}: {exc!r}")
        spans.append((t0, perf_ns()))
        if not ok:
            failed += 1
        record = [cid, sorted(params.items())]
        if lhs is not None:
            record += [_canonical(lhs), _canonical(rhs)]
        digest.update(repr(record).encode())
    return setup_end, start, perf_ns(), spans, failed, errors, digest.hexdigest()


def _run_campaign(qburge, out_path):
    """`qburge verify` in-process, all nine suites at the default budget;
    there is nothing for the seed to pick. A check is one report record; its
    time runs from the end of the previous one to its own end, taken by
    hooks on the two functions that produce records."""
    verify = qburge.verify
    spans = []
    perf_ns = time.perf_counter_ns
    resume = [0]

    def mark(fn):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            t1 = perf_ns()
            spans.append((resume[0], t1))
            resume[0] = t1
            return result
        return hooked

    verify.check_identity = mark(verify.check_identity)
    verify.positivity_scan = mark(verify.positivity_scan)
    main = qburge.cli.main
    argv = ["verify", "--format", "json", "--out", out_path]
    setup_end = time.monotonic_ns()
    start = resume[0] = perf_ns()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    end = perf_ns()
    with open(out_path) as fh:
        records = json.load(fh)
    os.remove(out_path)

    failed = sum(1 for r in records if r["status"] != "pass")
    errors = []
    if code != 0:
        errors.append(f"qburge verify exited with {code}")
    if len(spans) != len(records):
        errors.append(f"{len(spans)} checks timed for {len(records)} records")
        failed = len(records)
    for r in records:
        r.pop("elapsed_ms", None)
    canon = sorted(json.dumps(r, sort_keys=True) for r in records)
    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    return setup_end, start, end, spans, failed, errors, digest


def main(argv):
    workload, seed, part, mode, work_dir = argv[0], int(argv[1]), int(argv[2]), argv[3], argv[4]
    qburge = _import_program()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(qburge)
    if workload != "campaign":
        import workloads
        build = {"bounded-grid": workloads.bounded_grid,
                 "single-limit": workloads.single_limit}[workload]
        checks = build(seed, part)
    pace = Pace()
    if mode == "setup":
        # probes right after set-up give the host speed it ran at
        setup_end = time.monotonic_ns()
        for _ in range(PROBE_WINDOW):
            pace.probe()
        print(json.dumps({"setup_end_ns": setup_end,
                          "setup_factor": statistics.median(pace.took) / PROBE_REF_NS}))
        return

    # a traced round is not scaled: its probes would be traced time
    with pace.running() if mode == "run" else contextlib.nullcontext():
        if workload == "campaign":
            setup_end, start, end, spans, failed, errors, digest = _run_campaign(
                qburge, os.path.join(work_dir, f"campaign-{os.getpid()}.json"))
            size = {"argv": ["verify", "--format", "json"]}
        else:
            setup_end, start, end, spans, failed, errors, digest = _run_checks(
                qburge, checks, tracer)
            size = {"per_case": Counter(cid for cid, _ in checks)}

    # the part of the round outside checks (digests, report rendering) is
    # scaled by the round's own factor
    raw = [pace.raw(t0, t1) for t0, t1 in spans]
    scaled = [r / pace.factor(t0, t1) for r, (t0, t1) in zip(raw, spans)]
    wall_ns = pace.raw(start, end)
    factor = pace.factor(start, end)
    result = {
        "setup_end_ns": setup_end,
        "setup_factor": pace.factor(start, start),
        "wall_s": wall_ns / 1e9,
        "scaled_wall_s": (sum(scaled) + (wall_ns - sum(raw)) / factor) / 1e9,
        "times_ns": raw,
        "scaled_ns": scaled,
        "probes": len(pace.took),
        "factor": factor,
        "checks": len(spans),
        "failed": failed,
        "errors": errors[:5],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "size": size,
    }
    if tracer:
        result["layers"] = tracer.report()
        result["missing"] = sorted(set(tracer.missing))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
