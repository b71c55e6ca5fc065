"""Command-line interface: eval, verify, list-identities, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qburge
from qburge import cli, qcombinat, verify
from qburge.verify import VerifyReport


def run(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    code = exc.value.code if exc.value.code is not None else 0
    return code, out.out, out.err


def test_eval_qbin(capsys):
    code, out, _ = run(capsys, ["eval", "qbin", "4", "2"])
    assert code == 0
    assert out.strip() == "0:1 1:1 2:2 3:1 4:1"


def test_eval_qbin_base_zero_and_negative(capsys):
    code, out, _ = run(capsys, ["eval", "qbin", "5", "2", "-1"])
    assert code == 0
    assert out.strip() == "-6:1 -5:1 -4:2 -3:2 -2:2 -1:1 0:1"
    code, out, _ = run(capsys, ["eval", "qbin", "5", "2", "0"])
    assert code == 0
    assert out.strip() == "0:10"


def test_eval_g(capsys):
    code, out, _ = run(capsys, ["eval", "G", "1", "1", "1", "3/2", "2"])
    assert code == 0
    assert out.strip() == "0:1 1:1"


def test_eval_fermionic(capsys):
    code, out, _ = run(capsys, ["eval", "F", "2", "1", "--L", "1", "--M", "1"])
    assert code == 0
    assert out.strip() == "0:1 1:2 2:1"


def test_eval_series(capsys):
    code, out, _ = run(capsys, ["eval", "series", "F", "2", "1",
                                "--order", "5"])
    assert code == 0
    assert out.strip() == "0:1 1:1 2:1 3:1 4:2 5:2"


def test_eval_usage_error(capsys):
    code, _, err = run(capsys, ["eval", "F", "2", "1"])  # missing --L/--M
    assert code == 2
    assert err == "usage error: eval F needs --L and --M\n"
    for obj in ("f", "H", "I", "Ftilde"):
        code, _, err = run(capsys, ["eval", obj, "2", "1", "--L", "1"])
        assert (code, err) == (2, f"usage error: eval {obj} needs --M\n")
    code, _, err = run(capsys, ["eval", "I", "2", "1", "--M", "1"])
    assert (code, err) == (2, "usage error: eval I needs --L\n")
    code, _, err = run(capsys, ["eval", "qbin"])  # missing params
    assert code == 2
    # an unread flag, once none is missing (Ftilde --L alone needs --M above)
    code, _, err = run(capsys, ["eval", "Ftilde", "2", "1", "--L", "5", "--M", "1"])
    assert (code, err) == (2, "usage error: eval Ftilde does not read --L\n")
    code, _, err = run(capsys, ["eval", "qbin", "3", "1", "--L", "4", "--order", "3"])
    assert (code, err) == (2, "usage error: eval qbin does not read --L and --order\n")


def test_eval_param_count(capsys):
    code, out, err = run(capsys, ["eval", "series", "F", "3", "1", "7"])
    assert (code, out) == (2, "")
    assert err == "usage error: eval series takes family a b (got 4 params)\n"
    code, _, err = run(capsys, ["eval", "qbin", "5"])
    assert (code, err) == (2, "usage error: eval qbin takes n m [base] (got 1 param)\n")


def test_verify_plain_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "thmmain",
                                "--a-max", "2", "--lm-max", "2"])
    assert code == 0
    assert out.strip() == "PASS 18/18"


def test_verify_unknown_suite_rejected(capsys):
    code, _, _ = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2


def test_verify_json_schema_and_determinism(capsys):
    argv = ["verify", "--suite", "section8", "--n-max", "3",
            "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    recs = json.loads(out1)
    assert len(recs) == 20
    for r in recs:
        assert set(r) == {"case", "params", "status", "elapsed_ms"}
        assert r["status"] == "pass"
    _, out2, _ = run(capsys, argv)
    strip = lambda recs: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                          for r in recs]
    assert strip(json.loads(out1)) == strip(json.loads(out2))


def test_json_render_matches_json_dumps():
    # the records are written directly, byte for byte as json.dumps writes
    # their dicts: params sorted by name, the fail fields only on a fail
    reports = [VerifyReport("main", {"b": 1, "a": 12, "L": -3, "M": 0}, "pass", elapsed_ms=0.12345),
               VerifyReport("series_F", {"family": "F", "T": 40, "entry": None}, "pass",
                            elapsed_ms=2.0),
               VerifyReport("caf\u00e9 \"x\"", {"part": "A\n\tB", "n": 10 ** 30}, "fail",
                            7, -(10 ** 25), 3, 1e-07),
               VerifyReport("hookp", {}, "fail", None, None, None, 123456.78949),
               VerifyReport("main", {"a": 2, "b": 1}, "pass")]

    def record(r):
        rec = {"case": r.case, "params": dict(sorted(r.params.items())), "status": r.status}
        if r.status == "fail":
            rec.update(first_diff_exponent=r.first_diff_exponent, lhs_coeff=r.lhs_coeff,
                       rhs_coeff=r.rhs_coeff)
        rec["elapsed_ms"] = round(r.elapsed_ms, 3)
        return rec
    for k in range(len(reports) + 1):
        assert cli._render(reports[:k], "json") == \
            json.dumps([record(r) for r in reports[:k]], separators=(",", ":")) + "\n"


def test_verify_csv(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "section8",
                                "--n-max", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("case,params,status")
    assert len(lines) == 11


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["thmmain"], "a_max": 2,
                               "lm_max": 3}))
    # flag beats the config value
    code, out, _ = run(capsys, ["verify", "--config", str(cfg),
                                "--lm-max", "2"])
    assert code == 0
    assert out.strip() == "PASS 18/18"


def test_verify_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", "--config",
                                str(tmp_path / "missing.json")])
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"wibble": 1}))
    code, _, err = run(capsys, ["verify", "--config", str(bad)])
    assert code == 2
    unknown = tmp_path / "suite.json"
    unknown.write_text(json.dumps({"suites": ["nope"]}))
    code, _, err = run(capsys, ["verify", "--config", str(unknown)])
    assert code == 2


@pytest.mark.parametrize("argv, config", [
    (["eval", "series", "H", "3", "1"], None),
    (["eval", "series", "f", "3", "1"], None),
    (["eval", "G", "1", "1", "1", "1/0", "2"], None),
    (["verify", "--order", "-1"], None),
    (["verify", "--a-max", "-1"], None),
    (["verify"], {"a_max": "3"}),
    (["verify"], {"jobs": 2}),
    (["verify"], {"suites": "thmmain"}),
    (["verify"], {"format": "xml"}),
    (["verify"], {"out": 5}),
    (["verify"], ["thmmain"]),
    (["eval", "series", "X", "3", "1"], None),
    (["eval", "qbin", "100000000", "3"], None),
    (["eval", "series", "F", "2", "1", "--order", "100000000"], None),
    (["verify", "--suite", "series", "--order", "100000000"], None),
    (["eval", "qbin", "100000000", "3", "-1"], None),
    (["eval", "G", "1", "1", "1000000000", "1", "1"], None),
    (["eval", "D", "2", "1", "2", "2", "1000000000", "1"], None),
    (["eval", "F", "2", "1"], None),
    (["eval", "Ftilde", "2", "1"], None),
    # d_poly's j range is exact, not 2|i| wide: this answers at once
    (["eval", "D", "2", "1000000000000", "2", "2", "1", "1"], None),
    # a param too many or too few, for each object
    (["eval", "series", "F", "3", "1", "7"], None),
    (["eval", "series", "F", "3"], None),
    (["eval", "qbin", "5", "2", "1", "9"], None),
    (["eval", "qbin", "5"], None),
    (["eval", "B", "1", "1", "1"], None),
    (["eval", "B", "1", "1", "1", "1", "1"], None),
    (["eval", "G", "1", "1", "1", "3/2"], None),
    (["eval", "D", "2", "1", "2", "2", "1"], None),
    (["eval", "F", "2", "1", "3", "--L", "1", "--M", "1"], None),
    (["eval", "Ftilde", "2", "--M", "1"], None),
    # a flag the object does not read
    (["eval", "qbin", "3", "1", "--L", "4", "--order", "3"], None),
    (["eval", "Ftilde", "2", "1", "--L", "5", "--M", "1"], None),
    # a config key is a field name, not any attribute of the config
    (["verify"], {"__class__": 1}),
    (["verify"], {"FIELDS": []}),
])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and len(err.splitlines()) == 1


_SMALL = st.integers(-8, 8).map(str)
_JUNK = st.sampled_from(["1/2", "-5/3", "1/0", "x", "", "2.5", "--", "F",
                         "--bogus", "--L", "--order"])


def _eval_argv(obj, params, junk, flags):
    return ["eval", obj] + params + junk + \
        [t for flag, v in zip(("--L", "--M", "--order"), flags) if v is not None
         for t in (flag, v)]


# mostly well-formed: small-int parameters and flags, at most one junk token
_EVAL = st.builds(
    _eval_argv,
    st.sampled_from(["qbin", "B", "G", "D", "F", "f", "H", "I", "Ftilde",
                     "series"]),
    st.lists(_SMALL, max_size=6),
    st.lists(_JUNK, max_size=1),
    st.tuples(*[st.one_of(st.none(), _SMALL)] * 3))
_ARGV = st.one_of(_EVAL,
                  st.builds(lambda junk: ["list-identities"] + junk,
                            st.lists(_JUNK, max_size=1)),
                  st.lists(st.one_of(_SMALL, _JUNK), max_size=4))


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_cli_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code or 0) in (0, 1, 2, 3)


def test_verify_budget_past_qbin_limit_exits_2(monkeypatch, capsys):
    # the positivity suite's G(L, L) needs [2L, L], of degree L^2 > 30 at L = 6
    monkeypatch.setattr(qcombinat, "QBIN_MAX_DEGREE", 30)
    code, out, err = run(capsys, ["verify", "--suite", "positivity",
                                  "--a-max", "2", "--n-max", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: budget too large")
    assert len(err.splitlines()) == 1


def test_verify_hookp_past_oracle_limit_exits_2(monkeypatch, capsys):
    # at a limit of 924 partitions (the 6 x 6 box) the suite stops at its
    # first larger oracle box, 6 x 7, with one line on stderr
    monkeypatch.setattr(verify, "ORACLE_MAX_PARTITIONS", 924)
    code, out, err = run(capsys, ["verify", "--suite", "hookp",
                                  "--lm-max", "20"])
    assert code == 2
    assert out == ""
    assert err == "usage error: budget too large: " \
        "the 6 x 7 box holds 1716 partitions > 924\n"


def test_verify_oversized_hookp_runs_no_check(monkeypatch, capsys):
    # the budget is checked against the suite's first oversized oracle box
    # before any check runs
    ran = []

    def check(cid, params):
        ran.append((cid, params))
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_identity", check)
    code, out, err = run(capsys, ["verify", "--suite", "hookp",
                                  "--lm-max", "20"])
    assert (code, out, ran) == (2, "", [])
    assert err == "usage error: budget too large: " \
        "the 11 x 12 box holds 1352078 partitions > 1000000\n"


@pytest.mark.parametrize("flags, err", [
    (["--suite", "positivity", "--a-max", "10", "--pos-l-max", "60"],
     "pos_l_max 60 needs qbin(120, 60) of degree 3600 > 2500"),
    (["--suite", "section8", "--n-max", "60"],
     "n_max 60 needs qbin(120, 60) of degree 3600 > 2500"),
    # without a coprime pair (a_max < 2) pos_gen has no case to read pos_l_max
    (["--suite", "positivity", "--a-max", "1", "--pos-l-max", "60",
      "--n-max", "51"], "n_max 51 needs qbin(102, 51) of degree 2601 > 2500"),
])
def test_verify_oversized_g_poly_runs_no_check(monkeypatch, capsys, flags, err):
    # G(N, N) reads [2N, N], of degree N^2: checked before any check runs
    monkeypatch.setattr(verify, "check_identity", lambda cid, params: 1 / 0)
    code, out, got = run(capsys, ["verify"] + flags)
    assert (code, out, got) == (2, "", f"usage error: budget too large: {err}\n")


@pytest.mark.parametrize("flags", [
    ["--suite", suite, "--lm-max", "40"]
    for suite in ("thmmain", "thmmain2", "even", "corollaries", "comp")
] + [
    # without a coprime pair, thmmain2 and comp still read [3L, 2L]
    ["--suite", suite, "--a-max", "1", "--lm-max", "40"]
    for suite in ("thmmain2", "comp")
])
def test_verify_oversized_lattice_runs_no_check(monkeypatch, capsys, flags):
    # [3L, 2L] at L = M = lm_max has degree 2 lm_max^2: checked before any
    # check runs
    monkeypatch.setattr(verify, "check_identity", lambda cid, params: 1 / 0)
    code, out, err = run(capsys, ["verify"] + flags)
    assert (code, out, err) == (2, "", "usage error: budget too large: lm_max 40 "
                                "needs qbin(120, 80) of degree 3200 > 2500\n")


def test_verify_lattice_budget_needs_a_pair(capsys):
    # without a coprime pair (a_max < 2) thmmain and even have no check,
    # so no q-binomial bounds lm_max
    for suite in ("thmmain", "even"):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--a-max", "1",
                                    "--lm-max", "40"])
        assert (code, out) == (0, "PASS 0/0\n")


def test_verify_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--suite", "thmmain",
                                "--a-max", "2", "--lm-max", "1",
                                "--format", "json", "--out", str(dest)])
    assert code == 0
    assert str(dest) in out
    assert all(r["status"] == "pass" for r in json.loads(dest.read_text()))
    code, _, err = run(capsys, ["verify", "--suite", "thmmain",
                                "--a-max", "2", "--lm-max", "1",
                                "--out", "/nonexistent/dir/report.txt"])
    assert code == 3
    assert "I/O error" in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    fail = VerifyReport("fake", {"L": 0}, "fail", 2, 0, 1, 0.1)
    monkeypatch.setattr(cli, "run_campaign", lambda suite, bud: [fail])
    code, out, _ = run(capsys, ["verify", "--suite", "thmmain"])
    assert code == 1
    assert "FAIL fake" in out and "q^2" in out
    assert out.strip().splitlines()[-1] == "FAIL 0/1"


def test_list_identities(capsys):
    code, out, _ = run(capsys, ["list-identities"])
    assert code == 0
    assert "main" in out and "hookp" in out and "series_F" in out
    lines = out.splitlines()
    assert len(lines) == 38
    assert sorted(line.split()[0] for line in lines
                  if line.split()[1] == "[positivity]") == \
        ["pos_gen", "pos_section8", "pos_shifted", "pos_split"]
    # every id, description and domain, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8c76e6ee58b5db7974b072d432254fd16d9cbcaa00ce6089969de077401f1522"


def test_verify_default_json_digest(tmp_path, capsys):
    # the default campaign's records, elapsed_ms aside, pinned by the digest
    # the benchmark's campaign workload checks
    dest = tmp_path / "report.json"
    code, _, _ = run(capsys, ["verify", "--format", "json", "--out", str(dest)])
    assert code == 0
    records = json.loads(dest.read_text())
    assert len(records) == 4802
    for r in records:
        del r["elapsed_ms"]
    canon = sorted(json.dumps(r, sort_keys=True) for r in records)
    assert hashlib.sha256("\n".join(canon).encode()).hexdigest() == \
        "f74723f27b5d404bb982c7ae9a1aa9e0349ba8bf678a625eab6f7cc284ddbb25"


def test_import_loads_no_generic_machinery():
    # a fresh interpreter, so the modules loaded by `site` and by this test
    # run do not count: only what importing the package adds
    code = ("import sys; before = set(sys.modules); "
            "import qburge, qburge.cli, qburge.verify; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(qburge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "qburge.verify" in added
    assert not {"dataclasses", "inspect", "csv", "typing"} & set(added)
