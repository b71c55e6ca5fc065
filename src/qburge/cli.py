"""Command-line front end: evaluate single objects, run verification
campaigns, list the identity catalogue.

Exit codes: 0 success / all pass, 1 campaign failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .qpoly import TruncatedSeries
from . import qcombinat
from .qcombinat import DegreeLimitError, qbin, b_kernel, g_poly, d_poly
from .fermionic import (eval_F, eval_f, eval_H, eval_I, eval_limit_L,
                        eval_limit_both)
from .verify import (CATALOGUE, CampaignBudget, SUITES, check_oracle_box,
                     run_campaign)


class RunConfig(CampaignBudget):
    """A campaign budget plus what `qburge verify` runs and where it writes."""

    FIELDS = CampaignBudget.FIELDS + ("suites", "format", "out")

    def __init__(self):
        super().__init__()
        self.suites = list(SUITES)
        self.format = "plain"      # plain | json | csv
        self.out = None


FORMATS = ("plain", "json", "csv")


def _fmt_poly(p):
    if isinstance(p, TruncatedSeries):
        return " ".join(f"{e}:{c}" for e, c in enumerate(p.coeffs))
    if p.is_zero():
        return "0"
    return " ".join(f"{e}:{c}" for e, c in p.items_sorted())


# eval object -> its evaluator, its positional params (a bracketed one is
# optional) and the flags it reads, passed after them (--L and --M are
# needed where read; --order is 20 when not given)
EVAL = {"qbin": (qbin, "n m [base]", ()), "B": (b_kernel, "L M a b", ()),
        "G": (g_poly, "N M alpha beta K", ()), "D": (d_poly, "K i N M alpha beta", ()),
        **{obj: (fn, "a b", ("L", "M")) for obj, fn in
           (("F", eval_F), ("f", eval_f), ("H", eval_H), ("I", eval_I))},
        "Ftilde": (lambda a, b, M: eval_limit_L("F", a, b, M), "a b", ("M",)),
        "series": (lambda family, a, b, T: eval_limit_both(
            family, a, b, 20 if T is None else T), "family a b", ("order",))}
# how a positional param parses, by name; every other one is an int
PARSE = {"alpha": Fraction, "beta": Fraction, "family": str}


def _cmd_eval(args):
    obj = args.object
    v = args.params
    fn, params, reads = EVAL[obj]
    try:
        names = params.split()
        if not sum(not n.startswith("[") for n in names) <= len(v) <= len(names):
            raise ValueError(f"eval {obj} takes {params} "
                             f"(got {len(v)} param{'' if len(v) == 1 else 's'})")
        given = [f for f in ("L", "M", "order") if getattr(args, f) is not None]
        missing = [f for f in reads if f not in given and f != "order"]
        unread = [f for f in given if f not in reads]
        for verb, flags in (("needs", missing), ("does not read", unread)):
            if flags:
                raise ValueError(f"eval {obj} {verb} "
                                 + " and ".join(f"--{f}" for f in flags))
        res = fn(*(PARSE.get(n.strip("[]"), int)(x) for n, x in zip(names, v)),
                 *(getattr(args, f) for f in reads))
    except (ValueError, TypeError, ZeroDivisionError,
            NotImplementedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(_fmt_poly(res))
    return 0


def _json_records(reports):
    """The text of each report's JSON object, as json.dumps with separators
    (",", ":") writes {"case", "params" (sorted by name), "status", on a
    fail "first_diff_exponent", "lhs_coeff" and "rhs_coeff", "elapsed_ms"},
    written directly: an int as it is, the measured (finite) elapsed_ms by
    float's repr, as json writes a finite float, and every other value by
    one encoder; the text of each case, status and param name once."""
    enc = json.JSONEncoder(separators=(",", ":")).encode
    names = {}
    for r in reports:
        params = ",".join([f"{names.get(k) or names.setdefault(k, enc(k))}:"
                           f"{v if type(v) is int else enc(v)}"
                           for k, v in sorted(r.params.items())])
        fail = "".join([f',"{k}":{v if type(v) is int else enc(v)}' for k, v in (
            ("first_diff_exponent", r.first_diff_exponent), ("lhs_coeff", r.lhs_coeff),
            ("rhs_coeff", r.rhs_coeff))]) if r.status == "fail" else ""
        case = names.get(r.case) or names.setdefault(r.case, enc(r.case))
        status = names.get(r.status) or names.setdefault(r.status, enc(r.status))
        yield (f'{{"case":{case},"params":{{{params}}},"status":{status}{fail},'
               f'"elapsed_ms":{round(r.elapsed_ms, 3)!r}}}')


def _summary(reports):
    """`PASS n/m` when all m reports pass, else `FAIL n/m`."""
    npass = sum(1 for r in reports if r.status == "pass")
    return f"{'PASS' if npass == len(reports) else 'FAIL'} {npass}/{len(reports)}"


def _render(reports, fmt):
    if fmt == "json":
        return f"[{','.join(_json_records(reports))}]\n"
    if fmt == "csv":
        import csv  # only this format needs it
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["case", "params", "status", "first_diff_exponent",
                    "lhs_coeff", "rhs_coeff", "elapsed_ms"])
        for r in reports:
            w.writerow([r.case, json.dumps(dict(sorted(r.params.items()))),
                        r.status, r.first_diff_exponent, r.lhs_coeff,
                        r.rhs_coeff, round(r.elapsed_ms, 3)])
        return buf.getvalue()
    lines = [f"FAIL {r.case} {dict(sorted(r.params.items()))} "
             f"first diff q^{r.first_diff_exponent}: "
             f"{r.lhs_coeff} vs {r.rhs_coeff}"
             for r in reports if r.status == "fail"]
    return "\n".join(lines + [_summary(reports)]) + "\n"


def _load_config(path, cfg):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key, val in data.items():
        if key not in cfg.FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, val)
    return cfg


def _check_config(cfg):
    """Reject a merged configuration that the campaign cannot run."""
    for name in CampaignBudget.FIELDS:
        v = getattr(cfg, name)
        if type(v) is not int or v < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {v!r}")
    if cfg.format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {cfg.format!r}")
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ValueError(f"out must be a path, got {cfg.out!r}")
    if not isinstance(cfg.suites, list) or \
            not all(isinstance(s, str) for s in cfg.suites):
        raise ValueError(f"suites must be a list of names, got {cfg.suites!r}")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}")
    limit = qcombinat.QBIN_MAX_DEGREE  # read at call time: tests patch it
    # g_poly(N, N, ...) reads [2N, N], of degree N^2: pos_gen (given a pair,
    # a_max >= 2) at N <= pos_l_max, pos_section8 and section8 at N <= n_max.
    # The lattice suites stay at degree 2LM <= 2 lm_max^2 (L = M = lm_max):
    # thmmain2 and comp build [2L+M, 2L] = [3L, 2L] in their explicit sums;
    # the tree walks of thmmain, thmmain2 and even refuse a point whose head
    # [2L+M, 2L] is above the limit, though they never build it; the kernels
    # [L+M+x-y, L+x] [L+M-x+y, L-x] (|x| <= L, |y| <= M) of their bosonic
    # sides and of corollaries stay at or below 2LM. The lattice sums of the
    # grids no longer build [3L, 2L]: their point form runs at M = 0, where
    # the head is [2L, 2L] = 1, and their rows build no head
    lattice = {"thmmain2", "comp"} | \
        ({"thmmain", "even", "corollaries"} if cfg.a_max >= 2 else set())
    for name, k, used in (
            ("pos_l_max", 1, "positivity" in cfg.suites and cfg.a_max >= 2),
            ("n_max", 1, {"positivity", "section8"} & set(cfg.suites)),
            ("lm_max", 2, lattice & set(cfg.suites))):
        n = getattr(cfg, name)
        if used and k * n * n > limit:
            raise ValueError(f"budget too large: {name} {n} needs qbin("
                             f"{(k + 1) * n}, {k * n}) of degree {k * n * n} > {limit}")
    if cfg.T > limit:
        raise ValueError(f"T must be <= {limit}, got {cfg.T}")
    if "hookp" in cfg.suites:  # the first oversized box, in run order
        try:
            for _, p in SUITES["hookp"](cfg):
                check_oracle_box(p["N"], p["M"])
        except DegreeLimitError as exc:
            raise ValueError(f"budget too large: {exc}") from None


def _cmd_verify(args):
    cfg = RunConfig()
    if args.config:
        try:
            _load_config(args.config, cfg)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 3
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
    for name in cfg.FIELDS:  # flags win over the config file
        v = getattr(args, name)
        if v is not None:
            setattr(cfg, name, v)
    try:
        _check_config(cfg)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    reports = []
    try:
        for suite in cfg.suites:
            reports.extend(run_campaign(suite, cfg))
    except DegreeLimitError as exc:
        print(f"usage error: budget too large: {exc}", file=sys.stderr)
        return 2
    text = _render(reports, cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 3
        print(f"{_summary(reports)} -> {cfg.out}")
    else:
        sys.stdout.write(text)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_list(args):
    for cid in sorted(CATALOGUE):
        case = CATALOGUE[cid]
        print(f"{cid:20s} [{case.kind}] {case.description}  "
              f"(domain: {case.param_domain})")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qburge",
        description="exact q-series identity engine and verifier")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a single object")
    pe.add_argument("object", choices=list(EVAL))
    pe.add_argument("params", nargs="*",
                    help="positional parameters for the object")
    pe.add_argument("--L", type=int, default=None)
    pe.add_argument("--M", type=int, default=None)
    pe.add_argument("--order", type=int, default=None,
                    help="series truncation order (default 20)")
    pe.set_defaults(fn=_cmd_eval)

    pv = sub.add_parser("verify", help="run verification campaigns")
    pv.add_argument("--suite", dest="suites", action="append",
                    choices=list(SUITES),
                    help="suite to run (repeatable; default all)")
    pv.add_argument("--a-max", dest="a_max", type=int)
    pv.add_argument("--lm-max", dest="lm_max", type=int)
    pv.add_argument("--n-max", dest="n_max", type=int)
    pv.add_argument("--order", dest="T", type=int, help="series order T")
    pv.add_argument("--pos-l-max", dest="pos_l_max", type=int)
    pv.add_argument("--format", choices=FORMATS)
    pv.add_argument("--out", help="write report to this path")
    pv.add_argument("--config", help="JSON config file (flags win)")
    pv.set_defaults(fn=_cmd_verify)

    pl = sub.add_parser("list-identities", help="list the identity catalogue")
    pl.set_defaults(fn=_cmd_list)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)  # exits 2 on a malformed argv
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
