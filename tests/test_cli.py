import enum
import io
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import _oracles as oracles
import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_eval_json_flags_the_order_below_four_too():
    # the same aux keys at every order, the flag false and every scalar a number below m = 4
    aux = {}
    for fixture in ("cubic_x_bx", "diag_quartic"):
        res = run_cli("eval", "--spec", str(FIXTURES / f"{fixture}.json"),
                      "--x=0.1,0.1", "--y=1,0.5", "--json")
        assert res.returncode == 0, res.stderr
        aux[fixture] = json.loads(res.stdout)["aux"]
    assert aux["cubic_x_bx"]["degenerate_order4"] is False
    assert aux["diag_quartic"]["degenerate_order4"] is True
    assert set(aux["cubic_x_bx"]) == set(aux["diag_quartic"])
    assert None not in aux["cubic_x_bx"].values()


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


# The verify rows in report order with their notes; the last nine need the
# scalar family, which divides by m - 4.
VERIFY_ROWS = (
    ("lbar_closed", ""),
    ("hbar_closed", ""),
    ("gbar_closed", ""),
    ("gbar_split", ""),
    ("gbar_inv_closed", ""),
    ("gbar_inv_split", ""),
    ("gbar_inv_closed_identity", "closed inverse times oracle tensor vs identity"),
    ("gbar_inv_split_identity", "split inverse times oracle tensor vs identity"),
    ("spray_split", "max |D - (P y + Q)|, printed scalar reading"),
    ("spray_split_alt", "max |D - (P y + Q)|, alternative scalar reading"),
    ("spray_tangential", "y-orthogonal parts of D and Q compared"),
    ("spray_tangential_alt", "same with the alternative scalar reading"),
    ("relatedness_balance", "printed relatedness condition, |lead - inverse part|"),
)


@pytest.mark.parametrize("fixture, m", [("cubic_x_bx", 3), ("diag_quartic", 4)])
def test_verify_lists_the_row_table(fixture, m):
    from mrootfinsler.report import B2_NOTE

    res = run_cli(
        "verify", "--spec", str(FIXTURES / f"{fixture}.json"),
        "--samples", "8", "--seed", "4", "--json",
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["order"] == m
    assert payload["notes"] == [B2_NOTE]
    rows = payload["rows"]
    assert [row["formula"] for row in rows] == [formula for formula, _ in VERIFY_ROWS]
    for i, (row, (formula, note)) in enumerate(zip(rows, VERIFY_ROWS)):
        if m == 4 and i >= 4:
            assert row == {"formula": formula, "max_abs": None, "max_rel": None,
                           "x": None, "y": None, "note": "degenerate at m = 4"}
        else:
            assert row["note"] == note, formula
            assert None not in (row["max_abs"], row["max_rel"], row["x"], row["y"]), formula


@pytest.mark.parametrize("fixture, m", [("cubic_x_bx", 3), ("diag_quartic", 4)])
def test_verify_text_lists_the_row_table(fixture, m):
    # the text report: the notes, and at m = 4 the flag line and the last
    # nine rows printed as degenerate, in report order
    from mrootfinsler.report import B2_NOTE

    res = run_cli(
        "verify", "--spec", str(FIXTURES / f"{fixture}.json"), "--samples", "8", "--seed", "4",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.decode().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("formula"))
    flag = ["note: order m = 4 flagged: closed-form scalar family degenerate"] * (m == 4)
    assert lines[3:start] == [f"note: {B2_NOTE}", *flag]
    table = lines[start + 1:]
    assert [line.split()[0] for line in table] == [formula for formula, _ in VERIFY_ROWS]
    for i, line in enumerate(table):
        if m == 4 and i >= 4:
            assert line.split()[1:] == ["degenerate", "(m", "=", "4)"], line
        else:
            assert "degenerate" not in line and " at " not in line and "x=[" in line, line


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


@pytest.mark.parametrize("name", ["parallel_m3", "parallel_m4"])
@pytest.mark.parametrize("kind, verdict, code", [
    ("proj-related", "related-within-tol", 0),
    ("dually-flat", "not-flat", 1),
    ("proj-flat", "not-flat", 1),
])
def test_parallel_one_form_fixture_verdicts(capsys, name, kind, verdict, code):
    # beta = dx^1 is parallel on these x-dependent metrics, so Gbar = G while
    # G is not zero: a positive proj-related verdict with non-zero sprays
    rc, out, err = run_main(capsys, "check", kind, "--json", "--spec", str(FIXTURES / f"{name}.json"))
    payload = json.loads(out)
    assert (rc, payload["verdict"], err) == (code, verdict, b"")
    if kind == "proj-related":
        assert payload["max_wedge_residual"] <= 1e-13


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


def test_path_rows_from_python_floats_match_numpy_scalars(tmp_path):
    # write_path_file formats the Python floats of x.tolist() and v.tolist():
    # the text is what _fmt makes of the np.float64 entries, signed zeros, the
    # smallest subnormal, the largest float and 17-digit values included
    from mrootfinsler import cli, spray

    values = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        2.2250738585072014e-308, 0.1, 0.30000000000000004, 1.0 / 3.0, -2.0 / 3.0 * 1e-5,
        math.pi, 1e16 + 2.0, 123456789.12345679, -9.999999999999998e22, 1.0,
    ])
    assert sum(float(f"{v:.16g}") != v for v in values) >= 6
    samples = [(0.25 * i, values[i : i + 3], values[i + 3 : i + 6]) for i in range(len(values) - 5)]
    out = tmp_path / "path.txt"
    cli.write_path_file(str(out), spray.GeodesicPath(samples), 3)
    rows = out.read_text().splitlines()[1:]
    expected = []
    for t, x, v in samples:
        scalars = [np.float64(t), *x, *v]
        assert all(type(value) is np.float64 for value in scalars)
        expected.append(" ".join(cli._fmt(value) for value in scalars))
    assert rows == expected
    assert rows[0].split()[:4] == ["0", "-0", "0", "4.9406564584124654e-324"]


def test_path_file_text_byte_for_byte(tmp_path):
    # the header, the truncation line and the .17g rows, as literal text
    from mrootfinsler import cli, spray

    samples = [(0.0, np.array([0.0, 0.1]), np.array([1.0, 0.5])),
               (0.25, np.array([0.2500000000000001, -0.0]), np.array([1.0 / 3.0, 5e-324]))]
    reason = "state at t=0.25 is outside the domain: form value -2.158e-03 at or below floor"
    out = tmp_path / "path.txt"
    cli.write_path_file(str(out), spray.GeodesicPath(samples), 2)
    assert out.read_bytes() == (
        b"# t x1 x2 v1 v2\n"
        b"0 0 0.10000000000000001 1 0.5\n"
        b"0.25 0.25000000000000011 -0 0.33333333333333331 4.9406564584124654e-324\n"
    )
    cli.write_path_file(str(out), spray.GeodesicPath(samples[:1], reason), 2)
    assert out.read_bytes() == (
        b"# t x1 x2 v1 v2\n"
        b"# truncated: state at t=0.25 is outside the domain: form value -2.158e-03 at or below floor\n"
        b"0 0 0.10000000000000001 1 0.5\n"
    )


def test_path_file_into_a_directory_is_refused(tmp_path):
    # the writer's own guard, which a caller without the CLI's pre-check of
    # --out (scripts/trace_geodesics.py) reaches
    from mrootfinsler import cli, spray
    from mrootfinsler.errors import ValidationError

    path = spray.GeodesicPath([(0.0, np.array([0.0, 0.1]), np.array([1.0, 0.5]))])
    with pytest.raises(ValidationError, match=f"^cannot write {tmp_path}: "):
        cli.write_path_file(str(tmp_path), path, 2)


def test_geodesic_overflow_exits_3_without_a_warning(tmp_path):
    # h = 1e308: the second RK4 stage's state overflows, and its guard refuses it
    out = tmp_path / "path.txt"
    res = run_cli(
        "geodesic", "--spec", str(FIXTURES / "cubic_x_bx.json"), "--metric", "base",
        "--x0=0,0", "--y0=10,5", "--t", "1e308", "--steps", "1", "--out", str(out),
        env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert res.returncode == 3, res.stderr
    assert res.stderr.decode() == (
        "numerical failure: geodesic truncated: overflow in the form value or derivatives"
        " at x=[inf, inf], y=[-inf, -inf]\n"
    )
    assert out.read_text().splitlines()[2:] == ["0 0 0 10 5"]


def test_overflowing_step_writes_a_truncated_path_file(tmp_path):
    # every stage is finite and the step's new state is not: the path is
    # truncated at the start state, with its reason, like a refused stage
    out = tmp_path / "path.txt"
    args = ["geodesic", "--spec", str(FIXTURES / "diag_quartic.json"), "--x0=0,0",
            "--y0=1e70,1e70", "--t", "1e250", "--steps", "1", "--out", str(out)]
    stderr = b"numerical failure: geodesic truncated: non-finite state at step 1\n"
    path_file = (b"# t x1 x2 v1 v2\n# truncated: non-finite state at step 1\n"
                 b"0 0 0 1.0000000000000001e+70 1.0000000000000001e+70\n")
    env = {"PYTHONWARNINGS": "error::RuntimeWarning"}
    res = run_cli(*args, env_extra=env)
    assert (res.returncode, res.stderr) == (3, stderr)
    assert res.stdout == f"wrote 1 states to {out} (truncated: domain exhausted)\n".encode()
    assert out.read_bytes() == path_file
    out.unlink()
    res = run_cli(*args, "--metric", "kropina", "--json", "--steps", "4", env_extra=env)
    assert (res.returncode, res.stderr) == (3, stderr)
    doc = json.loads(res.stdout)
    assert (doc["metric"], doc["steps"], doc["states_written"], doc["truncated"]) == (
        "kropina", 4, 1, True)
    assert out.read_bytes() == path_file


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader goes after 100 bytes of a 512 KB document, more than a pipe
    # buffer holds: a write meets the closed pipe, refused like an --out
    env = dict(os.environ)
    env.pop("FINSLER_SEED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mrootfinsler", "verify", "--json",
         "--spec", str(FIXTURES / "cubic_x_bx.json"), "--samples", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write stdout: "), err


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

    real_dX = spray.tail_x_derivatives

    def dX(A, beta, m):
        out = real_dX(A, beta, m)
        if out.ndim == 4 and len(out) > bad_sample:  # the stack of all samples
            out[bad_sample] = np.nan
        return out

    monkeypatch.setattr(spray, "tail_x_derivatives", dX)
    spec = FIXTURES / "cubic_x.json"
    rc = cli.main(["verify", "--spec", str(spec), "--samples", "6", "--seed", "0"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "spray_split residual is not finite" in err
    doc = load_spec(spec)
    samples = sampling.sample_points(
        doc.n, 6, 0, domain_check=partial(calculus.field_jets, doc.field, doc.oneform)
    )
    x, y = samples.x[bad_sample], samples.y[bad_sample]
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
    # cyclic garbage collector next runs.  json.dumps with indent leaves a
    # reference cycle of its own encoder functions, which holds none of the
    # report, so this counts the memory still held instead of the objects
    import gc
    import tracemalloc

    from mrootfinsler import cli
    from mrootfinsler.report import ResidualRow

    x = np.linspace(0.5, 1.5, 400).reshape(200, 2)
    rows = [ResidualRow(f"row{k}", x[:, 0] * k, x[:, 1] * k, "note") for k in range(4)]
    payload = {"records": [{"x": [0.5, 1.5], "rows": [{"x": [0.5], "note": None}]}]}
    cases = [payload, {"rows": [0.5], "records": cli._verify_records(x, x, rows)}]
    gc.collect()
    gc.disable()
    try:
        for item in cases:
            cli._emit(item, io.StringIO())  # what a first call allocates once
            tracemalloc.start()
            out = io.StringIO()
            cli._emit(item, out)
            size = len(out.getvalue())
            del out
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert held < 8192, (held, size)
        assert size > 100_000
    finally:
        gc.enable()


def test_emit_refuses_keys_that_are_not_strings():
    # json.dumps refuses the first two, as _emit does; it writes the key of
    # the last as "1", as _emit does
    for item in ({1: 0, "a": 1}, {(1, 2): 0}):
        with pytest.raises(TypeError):
            _emitted(item)
    item = {"a": {1: 0.0}}
    assert _emitted(item) == json.dumps(item, sort_keys=True, indent=2) + "\n"


_LEAVES = [
    "", "100%", "%s", "%%s %d", 'say "hi"', "back\\slash", "\x00\x1f\x7f\n\t\r\b\f",
    "\u2028\u2029", "\ud800", "\U0001f600", "\u00e9",
    0, -7, 2 ** 70, -(2 ** 70),
    -0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.5,
    True, False, None,
]


@pytest.mark.parametrize("value", _LEAVES, ids=repr)
def test_layout_leaves_are_the_json_dumps_text(value):
    # exact str, int and finite float leaves and the three literals, as a
    # value, a list item and a key
    key = value if type(value) is str else "k"
    document = {"leaf": value, "list": [value, [value]], key: value}
    assert _emitted(document) == json.dumps(document, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value, exotic", [
    (Label("a%s\u00e9"), True), (Level.ONE, True), (Level.ONE * 1.5, False),
    (math.nan, True), (math.inf, True), (-math.inf, True),
    (np.float64(0.1), True), (np.float64("nan"), True),
    ((), False), ((1.5, "a", None), False), ((1.5, ("b", [])), False), ([], False), ({}, False),
    ({"a": {}, "b": [], "c": ()}, False),
    ({1: 0.5}, True), ({"a": 1, Label("b"): [2.0, {"c": ()}]}, True), ({None: "x"}, True),
    ({True: "x", 2.5: (1,)}, True),
], ids=repr)
def test_layout_fallbacks_match_json_dumps(value, exotic):
    # `exotic` marks a value that is no plain JSON: it holds a subclass, a
    # numpy scalar, a float that is not finite or a key that is not exactly
    # str.  Tuples and empty containers are plain.
    document = {"outer": [{"inner": value}, value], "value": value}
    expected = [json.dumps(item, sort_keys=True, indent=2) + "\n" for item in (value, document)]
    assert [_emitted(value), _emitted(document)] == expected


def test_json_documents_are_the_json_dumps_text(capsys):
    # every verify and proj-related document, after rejected draws (the y
    # box straddles 0) included, is the json.dumps text of what it holds
    from conftest import ONE_FORM_SPECS

    from mrootfinsler import cli

    cases = [("verify", "--json", "--spec", str(FIXTURES / f"{name}.json"))
             for name in ONE_FORM_SPECS]
    cases += [("check", "proj-related", "--json", "--spec", BX),
              ("verify", "--json", "--spec", BX, "--ybox=-2,2")]
    outputs = [(args, cli.main(list(args)), capsys.readouterr()) for args in cases]
    assert json.loads(outputs[-1][2].out)["rejected"]
    for args, rc, captured in outputs:
        assert (rc, captured.err) == (1 if args[0] == "check" else 0, ""), args
        text = captured.out
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", args


_NOTES = st.none() | st.text(
    alphabet=st.sampled_from('a"\\%{}s\n\u00e9\u2028\U0001f600 ') | st.characters(), max_size=8,
)
# keys that sort before and after "records", so the records land between them
_ENVELOPES = st.fixed_dictionaries({
    "argv": st.lists(st.text(max_size=6), max_size=3),
    "notes": st.lists(_NOTES, max_size=2),
    "rejected": st.just([]),
    "rows": st.lists(st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3), max_size=2),
    "seed": st.integers(0, 2**32),
})


def _stacks(draw, count, n):
    values = st.floats() | st.sampled_from(_EDGE_FLOATS)
    return [np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                   min_size=count, max_size=count)), dtype=float).reshape(count, n)
            for _ in range(2)]


# Records one write joins in the fill tests, and the records they draw: enough
# to cross two chunk boundaries at the largest chunk.
_CHUNKS = st.integers(1, 4)
_MAX_RECORDS = 13


def _emitted_in_chunks(payload, chunk):
    """_emit of payload with `chunk` records joined per write."""
    from mrootfinsler import cli

    template, out = cli._template, io.StringIO()
    with mock.patch.object(cli, "_template", lambda *key: template(*key)._replace(per_chunk=chunk)):
        cli._emit(payload, out)
    return out.getvalue()


_ENVELOPE = {"argv": [], "notes": [], "rejected": [], "rows": [], "seed": 0}


def _example_stacks(count, nonfinite):
    """x, y (count, 2) and a residual per record, with a nan, inf or -inf in
    each of them at every record in `nonfinite`."""
    x = np.linspace(-1.0, 1.0, 2 * count).reshape(count, 2)
    y, values = x[::-1] + 2.0, np.linspace(0.5, 2.0, count)
    for i in nonfinite:
        x[i, 0], y[i, 1], values[i] = math.nan, math.inf, -math.inf
    return x, y, values


# Strings a slot or a section's line could be mistaken for: notes that read
# as an escaped NUL and a digit, or as a slot's number, and an envelope whose
# strings read as a section's line.
_SLOT_LIKE_NOTES = ("\x000", '"\x0012', "1000000000")
_SECTION_LIKE_ENVELOPE = {**_ENVELOPE, "argv": ['\n  "records": null', '\n  "rows": null', "\x000"],
                          "spec_name": '\n  "records": null'}


def _verify_example(count, nonfinite=(), null=(), notes=(None,) * 3, envelope=_ENVELOPE):
    """A verify report of `count` records, n = 2, over three rows with these
    notes, those in `null` undefined."""
    from mrootfinsler.report import ResidualRow

    x, y, values = _example_stacks(count, nonfinite)
    rows = [ResidualRow(f"row_{k}", None, None, note="null") if k in null
            else ResidualRow(f"row_{k}", values + k, values, notes[k]) for k in range(3)]
    return envelope, x, y, rows


@st.composite
def _verify_reports(draw):
    from mrootfinsler.report import ResidualRow

    n, count = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, _MAX_RECORDS))
    x, y = _stacks(draw, count, n)
    values = st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), min_size=count, max_size=count)
    rows = []
    for k in range(draw(st.integers(1, 4))):
        formula, note = f"row_{k}", draw(_NOTES)
        if draw(st.booleans()):  # undefined at this order, as at m = 4
            rows.append(ResidualRow(formula, None, None, note=note))
        else:
            rows.append(ResidualRow(formula, np.array(draw(values)), np.array(draw(values)), note))
    return draw(_ENVELOPES), x, y, rows


# chunks of 3: one record short of a chunk, one chunk, one record past it, and
# two boundaries crossed, with non-finite numbers in the first and last record
# of a chunk; and every row null, so the reduced rows have no slot
@example(report=_verify_example(2, (0, 1)), chunk=3)
@example(report=_verify_example(3, (0, 2)), chunk=3)
@example(report=_verify_example(4, (2, 3)), chunk=3)
@example(report=_verify_example(7, (3, 5, 6)), chunk=3)
@example(report=_verify_example(7, (0, 6), null=(0, 1, 2)), chunk=3)
@example(report=_verify_example(2, notes=_SLOT_LIKE_NOTES, envelope=_SECTION_LIKE_ENVELOPE), chunk=3)
@given(report=_verify_reports(), chunk=_CHUNKS)
@settings(max_examples=200, deadline=None)
def test_emit_verify_records_match_json_dumps(report, chunk):
    # the records and the reduced rows: two sections filled from one pass
    from mrootfinsler import cli
    from mrootfinsler.report import worst_samples

    payload, x, y, rows = report
    got = _emitted_in_chunks({**payload, "records": cli._verify_records(x, y, rows),
                              "rows": cli._verify_rows(x, y, rows, worst_samples(rows))}, chunk)
    expected = {**payload, "records": oracles.verify_records(x, y, rows),
                "rows": oracles.verify_rows(x, y, rows)}
    assert got == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@st.composite
def _check_reports(draw):
    n, count = draw(st.sampled_from([2, 3, 4])), draw(st.integers(0, _MAX_RECORDS))
    x, y = _stacks(draw, count, n)
    residuals = np.array(draw(st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS),
                                       min_size=count, max_size=count)), dtype=float)
    return draw(_ENVELOPES), x, y, residuals


@example(report=(_ENVELOPE, *_example_stacks(2, (0, 1))), chunk=3)
@example(report=(_ENVELOPE, *_example_stacks(3, (0, 2))), chunk=3)
@example(report=(_ENVELOPE, *_example_stacks(4, (2, 3))), chunk=3)
@example(report=(_ENVELOPE, *_example_stacks(7, (3, 5, 6))), chunk=3)
@example(report=(_SECTION_LIKE_ENVELOPE, *_example_stacks(2, ())), chunk=3)
@given(report=_check_reports(), chunk=_CHUNKS)
@settings(max_examples=100, deadline=None)
def test_emit_check_records_match_json_dumps(report, chunk):
    from mrootfinsler import cli

    payload, x, y, residuals = report
    got = _emitted_in_chunks({**payload, "records": cli._check_records(x, y, residuals)}, chunk)
    expected = {**payload, "records": oracles.check_records(x, y, residuals)}
    assert got == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fixture", ["cubic_x_bx", "mixed_quartic"])
def test_emit_verify_records_of_a_report(fixture):
    # real rows, and at m = 4 (mixed_quartic) the rows that are null there
    from mrootfinsler import calculus, cli, report, sampling
    from mrootfinsler.specfile import load_spec

    doc = load_spec(FIXTURES / f"{fixture}.json")
    samples = sampling.sample_points(
        doc.n, 6, 3, domain_check=partial(calculus.field_jets, doc.field, doc.oneform)
    )
    x, y = samples.x, samples.y
    rows = report.point_report(doc.field, doc.oneform, x, y)
    assert any(row.max_abs is None for row in rows) == (doc.m == 4)
    out = io.StringIO()
    cli._emit({"order": doc.m, "records": cli._verify_records(x, y, rows),
               "rows": cli._verify_rows(x, y, rows, report.worst_samples(rows))}, out)
    expected = {"order": doc.m, "records": oracles.verify_records(x, y, rows),
                "rows": oracles.verify_rows(x, y, rows)}
    assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_emit_never_holds_the_document_whole(monkeypatch):
    # a 100-sample verify document is the json.dumps text, written a chunk of
    # records at a time: no write holds more than one chunk's records and the
    # rest of the document
    from mrootfinsler import cli

    writes, templates, template = [], [], cli._template

    class Recorder:
        def write(self, text):
            writes.append(text)

    def recorded(shape, key, level):
        templates.append((shape, template(shape, key, level)))
        return templates[-1][1]

    monkeypatch.setattr(cli, "_template", recorded)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert cli.main(["verify", "--json", "--spec", BX, "--samples", "100"]) == 0
    text = "".join(writes)
    document = json.loads(text)
    assert text == json.dumps(document, sort_keys=True, indent=2) + "\n"
    records = document["records"]
    (per_chunk,) = {t.per_chunk for shape, t in templates if shape is cli._record_shape}
    assert 1 < per_chunk and 2 * per_chunk < len(records) == 100
    envelope = len(json.dumps({**document, "records": []}, sort_keys=True, indent=2)) + 1
    record = max(len(json.dumps(r, sort_keys=True, indent=2).replace("\n", "\n    "))
                 for r in records) + len(",\n    ")
    assert max(map(len, writes)) <= envelope + per_chunk * record


@pytest.mark.parametrize("args", [
    ("verify", "--samples", "3"),
    ("check", "proj-related", "--samples", "3"),
    ("eval", "--x", "0,0", "--y", "1,2"),
])
def test_order_two_warning_is_one_fixed_line(args):
    res = run_cli(*args, "--spec", str(FIXTURES / "riemann_identity.json"))
    lines = res.stderr.decode().splitlines()
    warned = [line for line in lines if "Riemannian" in line]
    assert warned == ["warning: order 2 is Riemannian: closed forms target m > 2"], lines
    assert lines[0] == warned[0]
    assert not any(".py" in line or os.sep + "mrootfinsler" in line for line in lines), lines


def _check_fails_at(monkeypatch, capsys, kind, module, name, bad_sample, value, what):
    # patch module.name to put `value` into its result at `bad_sample`; the
    # run must exit 3 naming that sample and write nothing to stdout.
    from mrootfinsler import calculus, cli, sampling
    from mrootfinsler.specfile import load_spec

    real = getattr(module, name)

    def patched(*args):
        out = real(*args)
        residual = out if isinstance(out, np.ndarray) else out.residual
        if len(residual) > bad_sample:
            residual[bad_sample] = value
        return out

    monkeypatch.setattr(module, name, patched)
    spec = FIXTURES / "mixed_quartic.json"
    rc = cli.main(["check", kind, "--json", "--spec", str(spec), "--samples", "60", "--seed", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = load_spec(spec)
    samples = sampling.sample_points(
        doc.n, 60, 1, domain_check=partial(calculus.field_jets, doc.field, doc.oneform)
    )
    x, y = samples.x[bad_sample], samples.y[bad_sample]
    assert captured.err == (f"numerical failure: {what} residual is not finite at "
                            f"x={x.tolist()}, y={y.tolist()}\n")


@pytest.mark.parametrize("bad_sample, value", [(0, np.nan), (7, np.inf)])
def test_check_proj_related_nonfinite_residual_exits_3(monkeypatch, capsys, bad_sample, value):
    # a non-finite residual must fail the run and name its sample: NaN would
    # drop out of the maximum, and the report would hold invalid JSON
    from mrootfinsler import spray

    _check_fails_at(monkeypatch, capsys, "proj-related", spray, "projective_residual",
                    bad_sample, value, "proj-related")


@pytest.mark.parametrize("bad_sample, value", [(0, np.nan), (7, np.inf)])
@pytest.mark.parametrize("kind, name, what", [
    ("dually-flat", "dually_flat_residual", "dually-flat"),
    ("proj-flat", "proj_flat_residual", "proj-flat"),
    ("proj-flat", "proj_flat_condition", "proj-flat closed-form"),
], ids=["dually-flat", "proj-flat", "proj-flat-closed-form"])
def test_check_flatness_nonfinite_residual_exits_3(
    monkeypatch, capsys, kind, name, what, bad_sample, value
):
    # the flatness kinds go through the same guard as proj-related: an
    # operational or closed-form residual that is not finite exits 3
    from mrootfinsler import flatness

    _check_fails_at(monkeypatch, capsys, kind, flatness, name, bad_sample, value, what)


@pytest.mark.parametrize("bad_sample", [1, 4])
@pytest.mark.parametrize("kind, residual, condition", [
    ("dually-flat", "dually_flat_residual", "dually_flat_condition"),
    ("proj-flat", "proj_flat_residual", "proj_flat_condition"),
])
def test_check_flatness_fails_in_sample_order_on_the_sampler_pass(
    monkeypatch, capsys, kind, residual, condition, bad_sample
):
    # the operational residual is NaN at bad_sample, and the closed-form
    # condition after it refuses sample 5 of the whole stack: a loop over the
    # samples meets bad_sample first, and the stack, evaluated once on the
    # sampler's pass, raises what the loop meets
    from mrootfinsler import calculus, cli, flatness, sampling
    from mrootfinsler.errors import DomainError, raise_first
    from mrootfinsler.specfile import load_spec

    real_residual, real_condition = getattr(flatness, residual), getattr(flatness, condition)
    lengths = []

    def patched_residual(field, oneform, x, y, jets):
        lengths.append((len(x), len(jets.val)))
        out = real_residual(field, oneform, x, y, jets)
        if len(out) > bad_sample:
            out[bad_sample] = np.nan
        return out

    def patched_condition(field, oneform, x, y, jets):
        raise_first(np.arange(len(x)) == 5, DomainError, "refused sample {}", np.arange(len(x)))
        return real_condition(field, oneform, x, y, jets)

    monkeypatch.setattr(flatness, residual, patched_residual)
    monkeypatch.setattr(flatness, condition, patched_condition)
    spec = FIXTURES / "mixed_quartic.json"
    rc = cli.main(["check", kind, "--json", "--spec", str(spec), "--samples", "60", "--seed", "1"])
    assert rc == 3
    assert lengths == [(60, 60)]
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = load_spec(spec)
    samples = sampling.sample_points(
        doc.n, 60, 1, domain_check=partial(calculus.field_jets, doc.field, doc.oneform)
    )
    x, y = samples.x[bad_sample], samples.y[bad_sample]
    assert captured.err == (f"numerical failure: {kind} residual is not finite at "
                            f"x={x.tolist()}, y={y.tolist()}\n")


# derivative passes (TermTable.block calls) of each sampled command: one on
# the default boxes, two for proj-related (its own at y/||y||).  With the y box
# straddling 0, cubic_x_bx rejects draws at seed 4: one pass per block of
# attempts (seven), then one over the accepted stack, or proj-related's own;
# mixed_quartic rejects none there, so its counts stay those of the default boxes
@pytest.mark.parametrize("fixture, after_rejections", [("cubic_x_bx", 8), ("mixed_quartic", None)])
def test_one_pass_per_sampled_command(monkeypatch, capsys, fixture, after_rejections):
    from mrootfinsler import cli, fields

    real = fields.TermTable.block
    calls = []

    def counted(self, v):
        calls.append(len(v))
        return real(self, v)

    monkeypatch.setattr(fields.TermTable, "block", counted)

    def passes(*args):
        calls.clear()
        assert cli.main([*args, "--spec", str(FIXTURES / f"{fixture}.json")]) in (0, 1)
        capsys.readouterr()
        return len(calls)

    for args, default in ((("verify",), 1), (("check", "dually-flat"), 1),
                          (("check", "proj-flat"), 1), (("check", "proj-related"), 2)):
        assert passes(*args) == default, args
        assert passes(*args, "--ybox=-2,2", "--seed", "4") == (after_rejections or default), args


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
    (("eval", "--spec", CUBIC, "--x", "nan,0", "--y", "1,1"), None),
    (("eval", "--spec", CUBIC, "--x", "0,0", "--y", "1,inf"), None),
    (("geodesic", "--spec", CUBIC, "--x0=nan,0", "--y0", "1,0.5", "--t", "0.5", "--steps", "10"),
     None),
    (("geodesic", "--spec", CUBIC, "--x0", "0,0", "--y0=-inf,0.5", "--t", "0.5", "--steps", "10"),
     None),
    # a path file that cannot be written: its directory is missing, or it is a directory
    (GEODESIC + ("--t", "0.5", "--steps", "10", "--out", str(FIXTURES / "missing" / "path.txt")),
     None),
    (GEODESIC + ("--t", "0.5", "--steps", "10", "--out", str(FIXTURES)), None),
], ids=[
    "box-empty", "ybox-not-numbers", "box-span-infinite", "seed-negative", "seed-env-negative",
    "samples-zero", "steps-zero", "t-nan", "tol-nan", "tol-negative",
    "eval-x-nan", "eval-y-inf", "geodesic-x0-nan", "geodesic-y0-inf",
    "out-directory-missing", "out-is-a-directory",
])
def test_invalid_values_exit_2(tmp_path, args, env):
    out = tmp_path / "path.txt"
    unwritable = args[args.index("--out") + 1] if "--out" in args else None
    if args[0] == "geodesic" and unwritable is None:
        args += ("--out", str(out))
    res = run_cli(*args, env_extra=env)
    assert res.returncode == 2
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    if unwritable is not None:
        assert lines[0].startswith(f"error: cannot write {unwritable}: "), lines
    assert res.stdout == b""
    assert not out.exists()


@pytest.mark.parametrize("flag, args", [
    ("--x", ("eval", "--x", "nan,0", "--y", "1,1")),
    ("--y", ("eval", "--x", "0,0", "--y", "1,inf")),
    ("--x0", ("geodesic", "--x0=nan,0", "--y0", "1,0.5", "--t", "0.5", "--steps", "10")),
    ("--y0", ("geodesic", "--x0", "0,0", "--y0=-inf,0.5", "--t", "0.5", "--steps", "10")),
    # a bound that overflows or is not a number is refused as not finite,
    # not as an empty box, and an infinite bound before the sampler sees it
    ("--box", ("verify", "--box=1e400,2")),
    ("--ybox", ("verify", "--ybox=nan,1")),
    ("--box", ("verify", "--box=-inf,0")),
    ("--ybox", ("verify", "--ybox=0.1,inf")),
])
def test_nonfinite_point_names_its_flag(tmp_path, capsys, flag, args):
    from mrootfinsler import cli

    out = tmp_path / "path.txt"
    rc = cli.main(list(args) + ["--spec", CUBIC] + (["--out", str(out)] if args[0] == "geodesic" else []))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag}: every value must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--box", "--ybox"])
def test_box_whose_span_overflows_names_its_flag(capsys, flag):
    # finite bounds whose HI - LO overflows are refused by the flag, before
    # the sampler's own check, which names no flag
    from mrootfinsler import cli

    rc = cli.main(["verify", "--spec", CUBIC, f"{flag}=-1e308,1e308"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag}: HI - LO is not finite\n"


@pytest.mark.parametrize("args, seed_env, code, line", [
    (("verify", "--samples", "abc"), None, 2, "error: --samples: expected an integer, got 'abc'"),
    (("verify",), "abc", 2, "error: FINSLER_SEED: expected an integer, got 'abc'"),
    (("geodesic", "--x0", "0,0", "--y0", "1,0.5", "--t", "abc", "--steps", "10"), None, 2,
     "error: --t: expected a number, got 'abc'"),
    (("check", "dually-flat", "--tol", "abc"), None, 2, "error: --tol: expected a number, got 'abc'"),
    # every y of this box is refused, so no sample is left to report on
    (("verify", "--ybox=-0.0,1e-300"), None, 3,
     "numerical failure: no admissible samples in the requested box"),
], ids=["samples-not-integer", "seed-env-not-integer", "t-not-number", "tol-not-number",
        "no-admissible-sample"])
def test_unreadable_values_and_an_empty_box_write_one_line(
    tmp_path, monkeypatch, capsys, args, seed_env, code, line
):
    from mrootfinsler import cli

    if seed_env is None:
        monkeypatch.delenv("FINSLER_SEED", raising=False)
    else:
        monkeypatch.setenv("FINSLER_SEED", seed_env)
    out = tmp_path / "path.txt"
    rc = cli.main(list(args) + ["--spec", CUBIC] + (["--out", str(out)] if args[0] == "geodesic" else []))
    assert rc == code
    assert capsys.readouterr() == ("", line + "\n")
    assert not out.exists()


# -- spec input edges -----------------------------------------------------------

BX_TEXT = (FIXTURES / "cubic_x_bx.json").read_text()
FIRST_COEFF = '"coeff": 1.0'
FIRST_EXPONENTS = '"exponents": [1, 0]'


@pytest.mark.parametrize("data, named", [
    (BX_TEXT.replace("cubic-x-bx", "cubic-\xe9").encode("latin-1"), "spec.json: not UTF-8"),
    (BX_TEXT.replace(FIRST_COEFF, '"coeff": 1' + "0" * 400, 1).encode(), "tensor[0].poly[0].coeff"),
    (BX_TEXT.replace('"cubic-x-bx"', "[" * 100_000 + "]" * 100_000).encode(),
     "spec.json: invalid JSON"),
    (BX_TEXT.replace(FIRST_COEFF, '"coeff": NaN', 1).encode(), "tensor[0].poly[0].coeff"),
    (BX_TEXT.replace(FIRST_COEFF, '"coeff": Infinity', 1).encode(), "tensor[0].poly[0].coeff"),
    (BX_TEXT.replace(FIRST_EXPONENTS, '"exponents": [65, 0]', 1).encode(),
     "tensor[0].poly[1].exponents: each must be in 0..64"),
    (BX_TEXT.replace(FIRST_EXPONENTS, f'"exponents": [{10 ** 30}, 0]', 1).encode(),
     "tensor[0].poly[1].exponents: each must be in 0..64"),
], ids=["not-utf8", "int-beyond-float", "nested-too-deep", "nan-coeff", "infinite-coeff",
        "exponent-above-bound", "exponent-beyond-c-long"])
def test_spec_input_edges_exit_2(tmp_path, data, named):
    # one error line naming the file or the field: no traceback, no numerical
    # failure from a coefficient that was never finite, no leaked RuntimeWarning
    spec = tmp_path / "spec.json"
    spec.write_bytes(data)
    res = run_cli("verify", "--samples", "5", "--spec", str(spec),
                  env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert res.returncode == 2
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert named in lines[0]
    assert res.stdout == b""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_where_the_closed_forms_overflow_exits_3(capsys):
    # at m = 3 a reported value that is not finite fails the run in one line
    # naming it and the point, with no RuntimeWarning; at m = 4 the scalars
    # undefined by the degeneracy print as undefined, and the run passes
    from mrootfinsler import cli

    for flag in ([], ["--json"]):
        rc = cli.main(["eval", "--spec", str(FIXTURES / "cubic_x_bx.json"), "--x=1e200,0",
                       "--y=1,1"] + flag)
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == "numerical failure: p0 is not finite at x=[1e+200, 0.0], y=[1.0, 1.0]\n"
    rc = cli.main(["eval", "--spec", str(FIXTURES / "diag_quartic.json"), "--x=1e200,0", "--y=1,1"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.count("= undefined (order-4 degeneracy)") == 7


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_where_the_closed_forms_overflow_exits_3(capsys):
    # x near 1e150: the closed forms overflow, and the first row that is not
    # finite fails the run in one line naming it and the point, with no
    # RuntimeWarning; the three check kinds take the same box quietly
    from mrootfinsler import cli

    spec, box = str(FIXTURES / "cubic_x_bx.json"), "--box=1e150,1e151"
    for flag in ([], ["--json"]):
        rc = cli.main(["verify", "--spec", spec, "--samples", "5", box] + flag)
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == (
            "numerical failure: gbar_split residual is not finite at "
            "x=[6.732655185893089e+150, 3.428080423874833e+150], "
            "y=[0.17784969547876991, 0.1314025075042053]\n")
    for kind in ("dually-flat", "proj-flat", "proj-related"):
        rc = cli.main(["check", kind, "--spec", spec, "--samples", "60", box])
        assert rc in (0, 1) and capsys.readouterr().err == "", kind


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_where_the_form_nears_the_largest_float_exits_3(capsys):
    # y near 1e100: A nears 1e302, so A^(4/3) overflows (dually-flat) and the
    # proj-flat closed-form residual is not finite; each run fails in one line
    # with no RuntimeWarning.  proj-related evaluates at y/||y|| and gives its
    # verdict quietly.
    from mrootfinsler import cli

    spec = str(FIXTURES / "cubic_x_bx.json")
    for kind, code, named in (
        ("dually-flat", 3, "numerical failure: power 1.3333333333333333 of "),
        ("proj-flat", 3, "numerical failure: proj-flat closed-form residual is not finite at "),
        ("proj-related", 1, None),
    ):
        rc = cli.main(["check", kind, "--spec", spec, "--samples", "60", "--ybox=1e100,1e101"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == code, (kind, lines)
        assert (len(lines) == 1 and lines[0].startswith(named)) if named else not lines, lines


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_path_file_is_refused_before_integrating(tmp_path, capsys, monkeypatch, target):
    from mrootfinsler import cli, spray

    def integrate(*args):
        pytest.fail("integrated a path that cannot be written")

    monkeypatch.setattr(spray, "integrate_geodesic", integrate)
    out = tmp_path / "missing" / "path.txt" if target == "missing-directory" else tmp_path
    rc = cli.main([*GEODESIC, "--t", "0.5", "--steps", "2000", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ") and captured.err.count("\n") == 1


def test_overflowing_form_exits_3_quietly(tmp_path):
    # a finite coefficient whose form overflows: the pass names the overflow
    # in one line and exits 3, with no RuntimeWarning on the way
    spec = tmp_path / "spec.json"
    spec.write_text(BX_TEXT.replace(FIRST_COEFF, '"coeff": 1e308', 1))
    res = run_cli("verify", "--samples", "5", "--spec", str(spec))
    assert res.returncode == 3
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: overflow in the form"), lines
    assert b"RuntimeWarning" not in res.stderr
    assert res.stdout == b""


def test_form_floor_past_the_largest_float_refuses_the_point(tmp_path):
    # ||y||^4 overflows while the pass stays finite (A = 1e-200 (y1^4 + y2^4)):
    # the floor reads inf, so one point and sample 1 of a stack are refused
    # alike, and the CLI exits 3 in one line with no RuntimeWarning
    import warnings

    from mrootfinsler import calculus
    from mrootfinsler.errors import DomainError
    from mrootfinsler.specfile import load_spec

    spec = tmp_path / "spec.json"
    text = (FIXTURES / "diag_quartic.json").read_text()
    spec.write_text(text.replace('"coeff": 1.0', '"coeff": 1e-200', 2))
    doc = load_spec(spec)
    y = np.array([[1.0, 2.0], [1.04e77, 1.04e77], [1.0, 0.5]])
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x, v in ((np.zeros(2), y[1]), (np.zeros((3, 2)), y)):
            with pytest.raises(DomainError) as exc:
                calculus.field_jets(doc.field, doc.oneform, x, v)
            errors.append(exc.value)
    message = "form value 2.340e+108 at or below floor inf"
    assert [str(e) for e in errors] == [message] * 2
    assert errors[1].sample == 1
    out = tmp_path / "path.txt"
    runs = [("eval", "--x=0,0", "--y=1.04e77,1.04e77")]
    runs += [("geodesic", "--metric", metric, "--x0=0,0", "--y0=1.04e77,1.04e77", "--t", "0.5",
              "--steps", "4", "--out", str(out)) for metric in ("kropina", "base")]
    for args in runs:
        res = run_cli(*args, "--spec", str(spec),
                      env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
        lines = res.stderr.decode().splitlines()
        assert res.returncode == 3 and len(lines) == 1, (args, lines)
        assert lines[0].startswith("numerical failure: ") and lines[0].endswith(message), lines


# -- what one process keeps between cli.main calls ------------------------------

def run_main(capsys, *args):
    """cli.main in this process: (exit code, stdout bytes, stderr bytes)."""
    from mrootfinsler import cli

    try:
        rc = cli.main(list(args))
    except SystemExit as exc:   # argparse rejects its input this way
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out.encode(), captured.err.encode()


def fresh(*args, env_extra=None):
    res = run_cli(*args, env_extra=env_extra)
    return res.returncode, res.stdout, res.stderr


BX = str(FIXTURES / "cubic_x_bx.json")


@pytest.mark.parametrize("args", [
    ("verify", "--json", "--spec", BX, "--samples", "20", "--seed", "3"),
    ("check", "proj-related", "--json", "--spec", BX, "--samples", "60", "--seed", "3"),
    ("check", "dually-flat", "--spec", str(FIXTURES / "mixed_quartic.json"), "--samples", "60"),
    ("eval", "--spec", BX, "--x", "0.1,0.2", "--y", "1,2"),
    ("geodesic", "--json", "--spec", BX, "--metric", "kropina", "--x0=0,0", "--y0=1,0.5",
     "--t", "0.3", "--steps", "20"),
], ids=["verify-json", "proj-related-json", "dually-flat", "eval", "geodesic"])
def test_in_process_reruns_equal_a_fresh_process(tmp_path, capsys, monkeypatch, args):
    # the second call reuses the parser and the parsed document of the first;
    # both print what a fresh process prints, byte for byte
    monkeypatch.delenv("FINSLER_SEED", raising=False)
    out = tmp_path / "path.txt"
    if args[0] == "geodesic":
        args += ("--out", str(out))
    runs = []
    for run in (partial(fresh, *args), partial(run_main, capsys, *args), partial(run_main, capsys, *args)):
        runs.append((run(), out.read_bytes() if out.exists() else None))
        if out.exists():
            out.unlink()
    assert runs[0][0][2] == b"", runs[0]
    assert runs[0] == runs[1] == runs[2]


def test_edited_spec_is_parsed_again(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    args = ("verify", "--json", "--spec", str(spec), "--samples", "5", "--seed", "0")
    spec.write_text(BX_TEXT)
    rc, first, _ = run_main(capsys, *args)
    assert rc == 0
    spec.write_text(BX_TEXT.replace(FIRST_COEFF, '"coeff": 2.0', 1))
    rc, second, _ = run_main(capsys, *args)
    assert rc == 0
    assert json.loads(second)["spec_sha256"] != json.loads(first)["spec_sha256"]
    assert json.loads(second)["records"] != json.loads(first)["records"]
    assert (rc, second) == fresh(*args)[:2]


def test_spec_errors_are_not_kept(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    args = ("check", "proj-flat", "--spec", str(spec), "--samples", "60")
    spec.write_text(BX_TEXT[:-10])
    for _ in range(2):
        rc, out, err = run_main(capsys, *args)
        assert (rc, out) == (2, b"")
        assert err.startswith(b"error: ") and b"invalid JSON" in err
    spec.write_text(BX_TEXT)
    rc, out, err = run_main(capsys, *args)
    assert rc == 1 and b"verdict: not-flat" in out and err == b""


def test_order_two_line_on_every_in_process_call(capsys):
    args = ("eval", "--spec", str(FIXTURES / "riemann_identity.json"), "--x", "0,0", "--y", "1,2")
    for _ in range(3):
        rc, _, err = run_main(capsys, *args)
        assert rc == 0
        assert err == b"warning: order 2 is Riemannian: closed forms target m > 2\n"


def test_parser_state_does_not_leak(capsys, monkeypatch):
    base = ("verify", "--json", "--spec", BX, "--samples", "3")
    monkeypatch.delenv("FINSLER_SEED", raising=False)
    assert json.loads(run_main(capsys, *base, "--seed", "5")[1])["seed"] == 5
    assert json.loads(run_main(capsys, *base)[1])["seed"] == 0
    monkeypatch.setenv("FINSLER_SEED", "7")
    assert json.loads(run_main(capsys, *base)[1])["seed"] == 7
    rc, out, err = run_main(capsys, "check", "bogus", "--spec", BX)
    assert rc == 2 and out == b"" and b"invalid choice" in err
    rc, out, _ = run_main(capsys, "check", "proj-flat", "--json", "--spec", BX, "--samples", "60")
    payload = json.loads(out)
    assert rc == 1 and payload["seed"] == 7 and payload["tol"] == 1e-8


def test_parsed_documents_are_bounded(tmp_path, capsys):
    from mrootfinsler import specfile

    for i in range(specfile.SPEC_CACHE_SIZE + 3):
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(BX_TEXT.replace("cubic-x-bx", f"copy-{i}"))
        rc, out, _ = run_main(capsys, "eval", "--json", "--spec", str(spec), "--x", "0,0", "--y", "1,2")
        assert rc == 0 and json.loads(out)["spec_name"] == f"copy-{i}"
        assert specfile._parse.cache_info().currsize <= specfile.SPEC_CACHE_SIZE
    hits = specfile._parse.cache_info().hits
    run_main(capsys, "eval", "--spec", str(spec), "--x", "0,0", "--y", "1,2")
    assert specfile._parse.cache_info().hits == hits + 1


def test_cli_and_load_spec_share_one_document(tmp_path, capsys, monkeypatch):
    # cli reads every spec through load_spec: a document the CLI parsed is a
    # cache hit for the library, and an edited file is parsed again
    from mrootfinsler import cli, specfile

    used = []

    def recorded(path):
        used.append(specfile.load_spec(path))
        return used[-1]

    monkeypatch.setattr(cli, "load_spec", recorded)
    spec = tmp_path / "shared.json"
    spec.write_text(BX_TEXT.replace("cubic-x-bx", "shared-0"))
    rc, out, _ = run_main(capsys, "eval", "--json", "--spec", str(spec), "--x", "0,0", "--y", "1,2")
    assert rc == 0 and len(used) == 1
    before = specfile._parse.cache_info()
    doc = specfile.load_spec(str(spec))
    after = specfile._parse.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert doc is used[0] and doc.sha256 == json.loads(out)["spec_sha256"]

    spec.write_text(BX_TEXT.replace("cubic-x-bx", "shared-1"))
    edited = specfile.load_spec(str(spec))
    assert specfile._parse.cache_info().misses == after.misses + 1
    assert edited is not doc and edited.name == "shared-1"


# -- document shapes one process lays out once ----------------------------------

def _json_commands(tmp_path):
    """Every --json command on every fixture: n = 2, 3, 4, m = 2, 3, 4 (rows
    null at m = 4), with and without rejected draws (the y box straddles 0)."""
    commands = []
    for name in ("riemann_identity", "berwald_moore", "cubic_x", "cubic_x_bx",
                 "diag_quartic", "mixed_quartic"):
        spec = str(FIXTURES / f"{name}.json")
        n = json.loads((FIXTURES / f"{name}.json").read_text())["dimension"]
        point = ",".join(["1", "0.5", "0.7", "0.9"][:n])
        for box in ((), ("--ybox=-2,2",)):
            commands.append(("verify", "--json", "--spec", spec, "--samples", "6", *box))
            commands += [("check", kind, "--json", "--spec", spec, "--samples", "50", *box)
                         for kind in ("dually-flat", "proj-flat", "proj-related")]
        commands.append(("eval", "--json", "--spec", spec, "--x=" + ",".join(["0.1"] * n),
                         "--y=" + point))
        commands += [("geodesic", "--json", "--spec", spec, "--metric", metric,
                      "--x0=" + ",".join(["0"] * n), "--y0=" + point, "--t", "0.1", "--steps", "4",
                      "--out", str(tmp_path / "path.txt")) for metric in ("kropina", "base")]
    return commands


def test_json_shape_cache_key_is_complete(tmp_path, capsys, monkeypatch):
    # each command twice in one shuffled order, so every shape follows
    # others: a key that missed what the text depends on (n, a null row)
    # would fill another shape's template.  Each output is the json.dumps
    # text and what the same command prints after the cache is cleared.
    import random

    from mrootfinsler import cli

    monkeypatch.delenv("FINSLER_SEED", raising=False)
    commands = _json_commands(tmp_path) * 2
    random.Random(24).shuffle(commands)
    warm = [run_main(capsys, *args) for args in commands]
    assert any(out and b'"max_abs": null' in out for _, out, _ in warm)
    for args, (rc, out, err) in zip(commands, warm):
        text = out.decode()
        if text:
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", args
        cli._template.cache_clear()
        assert run_main(capsys, *args) == (rc, out, err), args
    assert sum(bool(out) for _, out, _ in warm) > len(commands) * 3 // 4

    # a null row of the CLI has a note of its own, so which rows are null is
    # tried on rows whose n, formulas and notes agree
    from mrootfinsler.report import ResidualRow, worst_samples

    x, values = np.array([[0.5, 1.5]]), np.array([0.25])
    for null in ((), (1,), (0, 1), (0,), ()):
        rows = [ResidualRow(f"row{k}", None, None, note="note") if k in null
                else ResidualRow(f"row{k}", values, values, "note") for k in range(2)]
        out = io.StringIO()
        cli._emit({"records": cli._verify_records(x, x, rows),
                   "rows": cli._verify_rows(x, x, rows, worst_samples(rows))}, out)
        expected = {"records": oracles.verify_records(x, x, rows), "rows": oracles.verify_rows(x, x, rows)}
        assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2) + "\n", null


def test_json_shape_cache_is_hit_and_bounded(capsys):
    from mrootfinsler import cli

    cli._template.cache_clear()
    runs = []
    for seed in ("1", "2"):
        before = cli._template.cache_info()
        rc, out, _ = run_main(capsys, "verify", "--json", "--spec", BX, "--samples", "5", "--seed", seed)
        assert rc == 0 and json.loads(out)["seed"] == int(seed)
        after = cli._template.cache_info()
        runs.append((after.misses - before.misses, after.hits - before.hits))
    # the first call builds the record and the rows, the second reuses both
    assert runs == [(2, 0), (0, 2)]

    for n in range(1, cli.LAYOUT_CACHE_SIZE + 4):
        x, y = np.full((2, n), 0.5), np.full((2, n), 1.5)
        out = io.StringIO()
        cli._emit({"records": cli._check_records(x, y, np.zeros(2))}, out)
        expected = {"records": oracles.check_records(x, y, np.zeros(2))}
        assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert cli._template.cache_info().currsize <= cli.LAYOUT_CACHE_SIZE
