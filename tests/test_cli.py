import enum
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("FINSLER_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mrootfinsler", *args],
        capture_output=True, env=env, text=False,
    )


def test_exit_code_scenarios():
    # verdict pass on a Minkowski geometry
    ok = run_cli(
        "check", "dually-flat", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--samples", "60", "--seed", "1",
    )
    assert ok.returncode == 0, ok.stderr

    # verdict fail: generic point set is not projectively related
    fail = run_cli(
        "check", "proj-related", "--spec", str(FIXTURES / "cubic_x_bx.json"),
        "--samples", "60", "--seed", "1",
    )
    assert fail.returncode == 1
    assert b"not-related" in fail.stdout

    # spec error: malformed document
    bad = run_cli("eval", "--spec", str(FIXTURES / "missing.json"), "--x", "0,0", "--y", "1,1")
    assert bad.returncode == 2

    # numerical failure: one-form vanishes at the requested direction
    dom = run_cli(
        "eval", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--x", "0,0", "--y", "0,1",
    )
    assert dom.returncode == 3
    assert b"degeneracy floor" in dom.stderr


def test_invalid_spec_document_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2, "order": 4,
        "tensor": [{"indices": [2, 1, 1, 1], "poly": [{"exponents": [0, 0], "coeff": 1.0}]}],
    }))
    res = run_cli("eval", "--spec", str(bad), "--x", "0,0", "--y", "1,1")
    assert res.returncode == 2
    assert b"canonical" in res.stderr


def test_eval_json_fields_finite():
    res = run_cli(
        "eval", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--x", "0,0", "--y", "1,2", "--json",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["F"] == pytest.approx(17.0 ** 0.25)
    assert payload["Fbar"] == pytest.approx(np.sqrt(17.0))
    # degenerate scalars are null, never NaN: the serialized text itself must
    # not contain NaN tokens
    assert b"NaN" not in res.stdout
    assert payload["aux"]["degenerate_order4"] is True
    assert payload["aux"]["delta"] is None
    assert payload["aux"]["tau"] is not None


def test_verify_reports_and_determinism():
    args = (
        "verify", "--spec", str(FIXTURES / "cubic_x.json"),
        "--samples", "25", "--seed", "9", "--json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical under a fixed seed

    payload = json.loads(first.stdout)
    formulas = {row["formula"] for row in payload["rows"]}
    assert {"lbar_closed", "gbar_closed", "gbar_split", "gbar_inv_closed",
            "gbar_inv_split", "spray_split", "spray_split_alt"} <= formulas
    assert payload["samples_accepted"] == 25
    assert len(payload["records"]) == 25
    by_name = {row["formula"]: row for row in payload["rows"]}
    assert by_name["lbar_closed"]["max_abs"] <= 1e-8

    human_a = run_cli(*args[:-1])
    human_b = run_cli(*args[:-1])
    assert human_a.stdout == human_b.stdout


def test_verify_flags_order4_degeneracy():
    res = run_cli(
        "verify", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--samples", "10", "--seed", "2", "--json",
    )
    payload = json.loads(res.stdout)
    assert payload["degenerate_order4"] is True
    by_name = {row["formula"]: row for row in payload["rows"]}
    assert by_name["gbar_inv_closed"]["max_abs"] is None


def test_seed_env_and_flag_precedence():
    base = ("verify", "--spec", str(FIXTURES / "cubic_x.json"), "--samples", "5", "--json")

    def payload_sans_echo(result):
        data = json.loads(result.stdout)
        data.pop("argv")  # the command echo legitimately differs
        return data

    with_flag = run_cli(*base, "--seed", "11")
    with_env = run_cli(*base, env_extra={"FINSLER_SEED": "11"})
    assert payload_sans_echo(with_flag) == payload_sans_echo(with_env)
    flag_wins = run_cli(*base, "--seed", "11", env_extra={"FINSLER_SEED": "99"})
    assert flag_wins.stdout == with_flag.stdout
    other = run_cli(*base, "--seed", "12")
    assert payload_sans_echo(other) != payload_sans_echo(with_flag)


def test_check_seeded_box_override():
    res = run_cli(
        "check", "proj-flat", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--samples", "55", "--seed", "4", "--box=-0.5,0.5", "--ybox", "0.2,1.5",
        "--json",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "flat-within-tol"
    assert payload["kind"] == "projectively-flat"


def test_check_inconclusive_exits_3(tmp_path):
    res = run_cli(
        "check", "dually-flat", "--spec", str(FIXTURES / "cubic_x.json"),
        "--samples", "10", "--seed", "4",
    )
    assert res.returncode == 3


def test_geodesic_path_file(tmp_path):
    out = tmp_path / "path.txt"
    res = run_cli(
        "geodesic", "--spec", str(FIXTURES / "cubic_x.json"), "--metric", "kropina",
        "--x0", "0,0", "--y0", "1,0.5", "--t", "0.4", "--steps", "20",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "# t x1 x2 v1 v2"
    assert len(lines) == 22  # header + initial state + 20 steps
    first = [float(v) for v in lines[1].split()]
    assert first == [0.0, 0.0, 0.0, 1.0, 0.5]
    last = [float(v) for v in lines[-1].split()]
    assert last[0] == pytest.approx(0.4, abs=1e-12)
    # rerun is byte-identical
    out2 = tmp_path / "path2.txt"
    run_cli(
        "geodesic", "--spec", str(FIXTURES / "cubic_x.json"), "--metric", "kropina",
        "--x0", "0,0", "--y0", "1,0.5", "--t", "0.4", "--steps", "20",
        "--out", str(out2),
    )
    assert out.read_bytes() == out2.read_bytes()


def test_geodesic_truncation_exits_3(tmp_path):
    out = tmp_path / "path.txt"
    res = run_cli(
        "geodesic", "--spec", str(FIXTURES / "cubic_x.json"), "--metric", "base",
        "--x0=-0.5,0", "--y0=-0.6,1", "--t", "2.0", "--steps", "100",
        "--out", str(out),
    )
    assert res.returncode == 3
    lines = out.read_text().splitlines()
    assert lines[1].startswith("# truncated:")


def test_eval_requires_one_form(tmp_path):
    doc = {
        "dimension": 2, "order": 4,
        "tensor": [
            {"indices": [1, 1, 1, 1], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
            {"indices": [2, 2, 2, 2], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
        ],
    }
    spec = tmp_path / "base_only.json"
    spec.write_text(json.dumps(doc))
    res = run_cli("eval", "--spec", str(spec), "--x", "0,0", "--y", "1,2")
    assert res.returncode == 2
    # base-only geodesics still work without a one-form
    out = tmp_path / "p.txt"
    geo = run_cli(
        "geodesic", "--spec", str(spec), "--metric", "base",
        "--x0", "0,0", "--y0", "1,2", "--t", "0.5", "--steps", "10", "--out", str(out),
    )
    assert geo.returncode == 0


def test_csv_validation():
    res = run_cli(
        "eval", "--spec", str(FIXTURES / "diag_quartic.json"), "--x", "0,0,0", "--y", "1,2",
    )
    assert res.returncode == 2
    res = run_cli(
        "eval", "--spec", str(FIXTURES / "diag_quartic.json"), "--x", "a,b", "--y", "1,2",
    )
    assert res.returncode == 2


@pytest.mark.parametrize("bad_sample", [1, 4])
def test_verify_nonfinite_row_exits_3(monkeypatch, capsys, bad_sample):
    # a NaN closed form at an accepted sample of a non-degenerate order must
    # fail the run, whichever sample it hits, name that sample, and never
    # become a null row
    from mrootfinsler import calculus, cli, sampling, spray
    from mrootfinsler.specfile import load_spec

    real_dX = spray.transform_tail_x_derivatives

    def dX(bundle, m):
        out = real_dX(bundle, m)
        if out.ndim == 4 and len(out) > bad_sample:  # the stack of all samples
            out[bad_sample] = np.nan
        return out

    monkeypatch.setattr(spray, "transform_tail_x_derivatives", dX)
    spec = FIXTURES / "cubic_x.json"
    rc = cli.main(["verify", "--spec", str(spec), "--samples", "6", "--seed", "0"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "spray_split residual is not finite" in err
    doc = load_spec(spec)
    accepted = sampling.sample_points(
        doc.n, 6, 0, domain_check=calculus.domain_check(doc.field, doc.oneform)
    ).accepted
    x, y = accepted[bad_sample]
    assert f"at x={x.tolist()}, y={y.tolist()}" in err


def test_json_emit_follows_replaced_stdout(capsys):
    # --json output goes to the sys.stdout of the moment, not the one cli
    # saw when it was imported
    from mrootfinsler import cli

    rc = cli.main([
        "eval", "--json", "--spec", str(FIXTURES / "diag_quartic.json"),
        "--x", "0,0", "--y", "1,2",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["F"] == pytest.approx(17.0 ** 0.25)


def _emitted(payload):
    from mrootfinsler import cli

    out = io.StringIO()
    cli._emit(payload, out)
    return out.getvalue()


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.0, -2.5e-300]
_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.sampled_from(_EDGE_FLOATS)
    | st.floats().map(np.float64) | st.sampled_from(_EDGE_FLOATS).map(np.float64)
    | st.text(alphabet=st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600 ') | st.characters())
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=25,
)


@given(payload=_PAYLOADS, shared=st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS),
                                          min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_emit_matches_json_dumps(payload, shared):
    # the float-list cache must give each indent level its own text: the shared
    # list appears at three levels and twice at one of them
    document = {"payload": payload, "x": shared,
                "rows": [{"x": shared, "y": shared}, {"x": shared, "y": [shared]}]}
    for item in (payload, document):
        assert _emitted(item) == json.dumps(item, sort_keys=True, indent=2) + "\n"


class Label(str):
    pass


class Level(enum.IntEnum):
    ONE = 1


def test_emit_matches_json_dumps_on_edge_payloads():
    cases = [
        {}, [], (), {"a": {}, "b": [], "c": ()}, None, 1.5, "text",
        {"k": Label("v\u00e9"), Label("key"): [Label("a"), Level.ONE, Level.ONE * 1.5]},
        [np.float64("nan"), np.float64(-0.0), np.float64(1e16), True, False, None, 2 ** 70],
        {"q": 'say "hi"\\ \u00e9\u0000\x1f \U0001f600'},
    ]
    for item in cases:
        assert _emitted(item) == json.dumps(item, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}, object()])
def test_emit_refuses_what_json_dumps_refuses(value):
    for item in ({"a": [1.0, value]}, {"k": value}):
        with pytest.raises(TypeError) as expected:
            json.dumps(item, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            _emitted(item)
        assert str(got.value) == str(expected.value)


def test_emit_leaves_no_garbage_cycles():
    # the pieces of a report must be freed when _emit returns, not when the
    # cyclic garbage collector next runs
    import gc

    from mrootfinsler import cli

    payload = {"records": [{"x": [0.5, 1.5], "rows": [{"x": [0.5], "note": None}]}]}
    gc.collect()
    gc.disable()
    try:
        cli._emit(payload, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_emit_refuses_keys_that_are_not_strings():
    # json.dumps refuses the first two and writes the last as "1"; reports
    # have string keys only
    for item in ({1: 0, "a": 1}, {(1, 2): 0}, {"a": {1: 0.0}}):
        with pytest.raises(TypeError):
            _emitted(item)


CUBIC = str(FIXTURES / "cubic_x.json")
GEODESIC = ("geodesic", "--spec", CUBIC, "--x0", "0,0", "--y0", "1,0.5")


@pytest.mark.parametrize("args, env", [
    (("verify", "--spec", CUBIC, "--box", "1,0"), None),
    (("verify", "--spec", CUBIC, "--ybox", "a,b"), None),
    (("verify", "--spec", CUBIC, "--box=-1e308,1e308"), None),
    (("verify", "--spec", CUBIC, "--seed", "-1"), None),
    (("verify", "--spec", CUBIC), {"FINSLER_SEED": "-4"}),
    (("verify", "--spec", CUBIC, "--samples", "0"), None),
    (GEODESIC + ("--t", "0.5", "--steps", "0"), None),
    (GEODESIC + ("--t", "nan", "--steps", "10"), None),
    (("check", "dually-flat", "--spec", CUBIC, "--tol", "nan", "--json"), None),
    (("check", "dually-flat", "--spec", CUBIC, "--tol=-1e-8"), None),
], ids=[
    "box-empty", "ybox-not-numbers", "box-span-infinite", "seed-negative", "seed-env-negative",
    "samples-zero", "steps-zero", "t-nan", "tol-nan", "tol-negative",
])
def test_invalid_values_exit_2(tmp_path, args, env):
    out = tmp_path / "path.txt"
    if args[0] == "geodesic":
        args += ("--out", str(out))
    res = run_cli(*args, env_extra=env)
    assert res.returncode == 2
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert res.stdout == b""
    assert not out.exists()
