import numpy as np
import pytest

import _oracles as oracles
from conftest import (
    MAIN_FIXTURES,
    ONE_FORM_SPECS,
    assert_stack_matches,
    b_bx,
    b_const,
    cubic_x,
    diag_quartic,
    rel_err,
    riemann_identity,
    seeded_points,
    spec_samples,
)
from mrootfinsler import report, spray
from mrootfinsler.errors import (
    DomainError,
    NonFiniteResult,
    RiemannianOrderWarning,
)
from mrootfinsler.kropina import ORDER4_UNDEFINED, kropina_point
from mrootfinsler.report import ResidualRow

SQRT17 = np.sqrt(17.0)


def test_diag_quartic_golden_values():
    p = kropina_point(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    assert p.beta == pytest.approx(1.0, abs=1e-15)
    assert p.Fbar == pytest.approx(SQRT17, abs=1e-12)
    np.testing.assert_allclose(
        p.lbar, [-15.0 / SQRT17, 16.0 / SQRT17], atol=1e-12
    )
    assert float(p.lbar @ p.base.y) == pytest.approx(SQRT17, abs=1e-9)


def test_fbar_homogeneity():
    for name, make, _, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 10, seed=43):
            p1 = kropina_point(field, oneform, x, y)
            p2 = kropina_point(field, oneform, x, 2.0 * np.asarray(y))
            assert rel_err(p2.Fbar, 2.0 * p1.Fbar) <= 1e-12, name
            # transformed fundamental tensor is degree-0 homogeneous
            assert rel_err(p2.gbar_oracle, p1.gbar_oracle) <= 1e-9, name


def test_point_invariants():
    for name, make, _, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 20, seed=47):
            p = kropina_point(field, oneform, x, y)
            y = p.base.y
            assert rel_err(float(p.lbar @ y), p.Fbar) <= 1e-9, name
            assert rel_err(float(y @ p.gbar_oracle @ y), p.Fbar ** 2) <= 1e-9, name
            hy = p.hbar_oracle @ y
            assert float(np.max(np.abs(hy))) <= 1e-9 * (1 + np.max(np.abs(p.hbar_oracle))), name
            eye = p.gbar_inv_numeric @ p.gbar_oracle
            assert float(np.max(np.abs(eye - np.eye(p.base.field.n)))) <= 1e-8, name


def test_aux_scalars_order4_flagged():
    p = kropina_point(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    aux = p.aux
    assert all(np.isnan(getattr(aux, name)) for name in ORDER4_UNDEFINED)
    assert np.isnan(aux.delta) and np.isnan(aux.p0) and np.isnan(aux.p3)
    # scalars upstream of the degeneracy stay defined
    assert aux.tau == pytest.approx(p.base.F / p.beta, abs=1e-14)
    # the printed inverses are undefined: NaN in the split, degenerate rows
    s = spray.pq_split(p)
    assert np.isnan(s.gbar_inv_closed).all() and np.isnan(s.gbar_inv_split).all()
    rows = report.point_report(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    rows = {row.formula: row for row in rows}
    for formula in ("gbar_inv_closed", "gbar_inv_split"):
        assert rows[formula].max_abs is None and rows[formula].note == "degenerate at m = 4"


def test_aux_scalars_cubic_values():
    p = kropina_point(cubic_x(), b_const(2), [0.0, 0.0], [1.0, 1.0])
    aux = p.aux
    assert all(np.isfinite(getattr(aux, name)) for name in ORDER4_UNDEFINED)
    assert aux.tau == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)
    # tau * beta - F = 0 to rounding, on every sampled point
    for x, y in seeded_points(2, 10, seed=53):
        q = kropina_point(cubic_x(), b_const(2), x, y)
        assert abs(q.aux.tau * q.beta - q.base.F) <= 1e-12 * (1 + q.base.F)


def test_closed_inverses_match_printed_transcription():
    # the printed closed and split inverses, transcribed again in Python
    # floats one sample at a time from F, beta, b, A^ij and y
    for name, oneform in (("cubic_x", b_const(2)), ("cubic_x_bx", b_bx())):
        for x, y in seeded_points(2, 10, seed=59):
            p = kropina_point(cubic_x(), oneform, x, y)
            s = spray.pq_split(p)
            b = p.jets.group(1).grad_y.tolist()
            closed, split = oracles.printed_closed_inverses(
                float(p.base.F), float(p.beta), b, p.base.A_inv.tolist(), list(y), 3
            )
            assert rel_err(s.gbar_inv_closed, closed) <= 1e-12, name
            assert rel_err(s.gbar_inv_split, split) <= 1e-12, name
            # identity deviation is recorded, not asserted: just check finite
            dev = np.max(np.abs(s.gbar_inv_closed @ p.gbar_oracle - np.eye(2)))
            assert np.isfinite(dev), name


def test_supporting_covector_residual_is_tight():
    # the one closed form that is a direct differentiation
    for name, make, _, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 15, seed=61):
            rows = report.point_report(field, oneform, x, y)
            row = {r.formula: r for r in rows}["lbar_closed"]
            assert row.max_abs <= 1e-8, name


def test_supporting_covector_tight_near_oneform_floor():
    # beta ~ 9e-4 on cubic-x-bx here.  The oracle evaluates the coefficients
    # b_i(x) before contracting them with y; multiplying beta out into
    # (x, y)-monomials loses about three digits at this point (3.4e-10).
    x = [-0.18610439872138773, -0.9993986197861542]
    y = [1.5143233800600582, 1.7185642332450883]
    p = kropina_point(cubic_x(), b_bx(), x, y)
    assert abs(p.beta) < 1e-3
    rows = report.point_report(cubic_x(), b_bx(), x, y)
    row = {r.formula: r for r in rows}["lbar_closed"]
    assert row.max_abs <= 1e-11


def test_report_rows_and_flags():
    rows = report.point_report(cubic_x(), b_const(2), [0.1, 0.2], [0.9, 1.3])
    formulas = {r.formula for r in rows}
    assert formulas == {
        "lbar_closed", "hbar_closed", "gbar_closed", "gbar_split",
        "gbar_inv_closed", "gbar_inv_split",
        "gbar_inv_closed_identity", "gbar_inv_split_identity",
        "spray_split", "spray_split_alt", "spray_tangential", "spray_tangential_alt",
        "relatedness_balance",
    }
    assert all(r.max_abs is not None for r in rows)
    assert all(r.note != report.DEGENERATE_NOTE for r in rows)

    rows4 = report.point_report(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    rows4 = {r.formula: r for r in rows4}
    assert rows4["gbar_inv_closed"].max_abs is None
    assert rows4["gbar_inv_closed"].note == report.DEGENERATE_NOTE


@pytest.mark.parametrize(
    "name", ["diag_quartic", "berwald_moore", "mixed_quartic", "parallel_m4", "cubic_x_bx"]
)
def test_order_four_is_decided_in_point_report(monkeypatch, name):
    # at m = 4 the nine rows that need the scalar family are undefined and
    # the spray is never split; below it, one split serves the whole report
    doc, accepted, (xs, ys) = spec_samples(name, 6, seed=5)
    calls, split = [], spray.pq_split

    def counted(point):
        if doc.m == 4:
            raise AssertionError("the spray is split at m = 4")
        calls.append(point)
        return split(point)

    monkeypatch.setattr(spray, "pq_split", counted)
    for x, y in [accepted[0], (xs, ys)]:
        calls.clear()
        rows = report.point_report(doc.field, doc.oneform, x, y)
        assert [row.formula for row in rows] == [row.formula for row in report.ROWS]
        assert all(row.max_abs is not None for row in rows[:4])
        for row in rows[4:]:
            if doc.m == 4:
                assert (row.max_abs, row.max_rel, row.note) == (None, None, "degenerate at m = 4")
            else:
                assert row.max_abs is not None and row.max_rel is not None, row.formula
        assert len(calls) == (doc.m != 4)


def test_minkowski_rows_are_x_independent():
    field, oneform = diag_quartic(), b_const(2)
    y = [0.7, 1.6]
    rows_a = report.point_report(field, oneform, [0.0, 0.0], y)
    rows_b = report.point_report(field, oneform, [0.9, -0.4], y)
    for ra, rb in zip(rows_a, rows_b):
        assert ra.formula == rb.formula
        if ra.max_abs is not None:
            assert ra.max_abs == pytest.approx(rb.max_abs, rel=1e-12, abs=1e-14)


def test_worst_samples_keep_per_formula_max():
    field, oneform = cubic_x(), b_const(2)
    points = seeded_points(2, 5, seed=67)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    stacked = report.point_report(field, oneform, xs, ys)
    worst = report.worst_samples(stacked)
    assert all(len(row.max_abs) == len(row.max_rel) == 5 for row in stacked)
    assert len(worst) == len(stacked)
    for i, per_sample in zip(worst, stacked):
        assert per_sample.max_abs[i] == per_sample.max_abs.max()
        assert i == min(j for j in range(5) if per_sample.max_abs[j] == per_sample.max_abs.max())


def test_worst_samples_take_the_earliest_sample_of_a_tie():
    rows = [
        ResidualRow("tied", np.array([1.0, 3.0, 2.0, 3.0]), np.array([0.1, 0.3, 0.2, 0.4]), "note"),
        ResidualRow("undefined", None, None, note="degenerate at m = 4"),
    ]
    assert report.worst_samples(rows) == [1, None]


def test_order2_classical_anchor():
    # order 2 gives the classical quadratic-over-linear metric; the oracle
    # tensor still satisfies g y y = Fbar^2
    with pytest.warns(RiemannianOrderWarning):
        p = kropina_point(riemann_identity(), b_const(2), [0.0, 0.0], [0.8, 0.6])
    y = p.base.y
    assert rel_err(float(y @ p.gbar_oracle @ y), p.Fbar ** 2) <= 1e-9
    assert p.Fbar == pytest.approx((0.8 ** 2 + 0.6 ** 2) / 0.8, abs=1e-12)


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_stacked_rows_match_single_points(name):
    # every verify row of a stack equals the row of the same sample alone,
    # so no axis mixes samples
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=5)
    stacked = report.point_report(doc.field, doc.oneform, xs, ys)
    singles = [report.point_report(doc.field, doc.oneform, x, y) for x, y in accepted]
    assert all(row.max_abs is None or len(row.max_abs) == len(accepted) for row in stacked)
    for r, row in enumerate(stacked):
        rows = [single_rows[r] for single_rows in singles]
        assert all(single.formula == row.formula for single in rows)
        if row.max_abs is None:
            assert all(single.max_abs is None for single in rows), row.formula
            continue
        assert_stack_matches(row.max_abs, [single.max_abs for single in rows], row.formula)
        assert_stack_matches(row.max_rel, [single.max_rel for single in rows], row.formula)
    for r, (row, i) in enumerate(zip(stacked, report.worst_samples(stacked))):
        rows = [single_rows[r] for single_rows in singles]
        assert (i is None) == (rows[0].max_abs is None)
        if i is not None:
            assert_stack_matches(row.max_abs[i], max(single.max_abs for single in rows), row.formula)


def test_stack_raises_what_a_sample_loop_meets_first(monkeypatch):
    # sample 4 fails the first guard (beta = 0), sample 2 only the last one
    # (a residual row that is not finite): a loop over the samples meets
    # sample 2 first, and so must the stack
    field, oneform = cubic_x(), b_const(2)
    points = seeded_points(2, 6, seed=3)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    ys[4] = [0.0, 1.0]
    with pytest.raises(DomainError, match="one-form value") as exc:
        report.point_report(field, oneform, xs, ys)
    assert exc.value.sample == 4

    real_dX = spray.tail_x_derivatives

    def dX(A, beta, m):
        out = real_dX(A, beta, m)
        if len(out) > 2:
            out[2] = np.nan
        return out

    monkeypatch.setattr(spray, "tail_x_derivatives", dX)
    with pytest.raises(NonFiniteResult, match="spray_split residual") as exc:
        report.point_report(field, oneform, xs, ys)
    assert exc.value.sample == 2
    assert f"x={xs[2].tolist()}" in str(exc.value)
