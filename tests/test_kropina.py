import numpy as np
import pytest

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
    DegenerateOrderFour,
    DomainError,
    NonFiniteResult,
    RiemannianOrderWarning,
)
from mrootfinsler.kropina import (
    B2_NOTE,
    gbar_inverse_closed,
    kropina_point,
    merge_reports,
    verify_kropina_forms,
)

SQRT17 = np.sqrt(17.0)


def test_diag_quartic_golden_values():
    p = kropina_point(diag_quartic(), b_const(2), 4, [0.0, 0.0], [1.0, 2.0])
    assert p.beta == pytest.approx(1.0, abs=1e-15)
    assert p.Fbar == pytest.approx(SQRT17, abs=1e-12)
    np.testing.assert_allclose(
        p.lbar, [-15.0 / SQRT17, 16.0 / SQRT17], atol=1e-12
    )
    assert float(p.lbar @ p.base.y) == pytest.approx(SQRT17, abs=1e-9)


def test_fbar_homogeneity():
    for name, make, m, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 10, seed=43):
            p1 = kropina_point(field, oneform, m, x, y)
            p2 = kropina_point(field, oneform, m, x, 2.0 * np.asarray(y))
            assert rel_err(p2.Fbar, 2.0 * p1.Fbar) <= 1e-12, name
            # transformed fundamental tensor is degree-0 homogeneous
            assert rel_err(p2.gbar_oracle, p1.gbar_oracle) <= 1e-9, name


def test_point_invariants():
    for name, make, m, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 20, seed=47):
            p = kropina_point(field, oneform, m, x, y)
            y = p.base.y
            assert rel_err(float(p.lbar @ y), p.Fbar) <= 1e-9, name
            assert rel_err(float(y @ p.gbar_oracle @ y), p.Fbar ** 2) <= 1e-9, name
            hy = p.hbar_oracle @ y
            assert float(np.max(np.abs(hy))) <= 1e-9 * (1 + np.max(np.abs(p.hbar_oracle))), name
            eye = p.gbar_inv_numeric @ p.gbar_oracle
            assert float(np.max(np.abs(eye - np.eye(p.base.n)))) <= 1e-8, name


def test_aux_scalars_order4_flagged():
    p = kropina_point(diag_quartic(), b_const(2), 4, [0.0, 0.0], [1.0, 2.0])
    aux = p.aux
    assert aux.degenerate_order4
    assert np.isnan(aux.delta) and np.isnan(aux.p0) and np.isnan(aux.p3)
    # scalars upstream of the degeneracy stay defined
    assert aux.tau == pytest.approx(p.base.F / p.beta, abs=1e-14)
    with pytest.raises(DegenerateOrderFour):
        gbar_inverse_closed(p)


def test_aux_scalars_cubic_values():
    p = kropina_point(cubic_x(), b_const(2), 3, [0.0, 0.0], [1.0, 1.0])
    aux = p.aux
    assert not aux.degenerate_order4
    assert aux.tau == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)
    # tau * beta - F = 0 to rounding, on every sampled point
    for x, y in seeded_points(2, 10, seed=53):
        q = kropina_point(cubic_x(), b_const(2), 3, x, y)
        assert abs(q.aux.tau * q.beta - q.base.F) <= 1e-12 * (1 + q.base.F)


def test_closed_inverse_recorded_against_numeric():
    field, oneform = cubic_x(), b_const(2)
    for x, y in seeded_points(2, 10, seed=59):
        p = kropina_point(field, oneform, 3, x, y)
        closed = gbar_inverse_closed(p)
        np.testing.assert_allclose(closed, p.gbar_inv_closed, atol=1e-12)
        split = gbar_inverse_closed(p, split=True)
        np.testing.assert_allclose(split, p.gbar_inv_split, atol=1e-12)
        # identity deviation is recorded, not asserted: just check finite
        dev = np.max(np.abs(closed @ p.gbar_oracle - np.eye(2)))
        assert np.isfinite(dev)


def test_supporting_covector_residual_is_tight():
    # the one closed form that is a direct differentiation
    for name, make, m, make_b in MAIN_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 15, seed=61):
            rep = verify_kropina_forms(kropina_point(field, oneform, m, x, y))
            row = {r.formula: r for r in rep.rows}["lbar_closed"]
            assert row.max_abs <= 1e-8, name


def test_supporting_covector_tight_near_oneform_floor():
    # beta ~ 9e-4 on cubic-x-bx here.  The oracle evaluates the coefficients
    # b_i(x) before contracting them with y; multiplying beta out into
    # (x, y)-monomials loses about three digits at this point (3.4e-10).
    x = [-0.18610439872138773, -0.9993986197861542]
    y = [1.5143233800600582, 1.7185642332450883]
    p = kropina_point(cubic_x(), b_bx(), 3, x, y)
    assert abs(p.beta) < 1e-3
    row = {r.formula: r for r in verify_kropina_forms(p).rows}["lbar_closed"]
    assert row.max_abs <= 1e-11


def test_report_rows_and_flags():
    p = kropina_point(cubic_x(), b_const(2), 3, [0.1, 0.2], [0.9, 1.3])
    rep = verify_kropina_forms(p)
    formulas = {r.formula for r in rep.rows}
    assert formulas == {
        "lbar_closed", "hbar_closed", "gbar_closed", "gbar_split",
        "gbar_inv_closed", "gbar_inv_split",
        "gbar_inv_closed_identity", "gbar_inv_split_identity",
    }
    assert not rep.degenerate_order4
    assert B2_NOTE in rep.notes

    p4 = kropina_point(diag_quartic(), b_const(2), 4, [0.0, 0.0], [1.0, 2.0])
    rep4 = verify_kropina_forms(p4)
    assert rep4.degenerate_order4
    rows4 = {r.formula: r for r in rep4.rows}
    assert rows4["gbar_inv_closed"].max_abs is None


def test_minkowski_rows_are_x_independent():
    field, oneform = diag_quartic(), b_const(2)
    y = [0.7, 1.6]
    rep_a = verify_kropina_forms(kropina_point(field, oneform, 4, [0.0, 0.0], y))
    rep_b = verify_kropina_forms(kropina_point(field, oneform, 4, [0.9, -0.4], y))
    for ra, rb in zip(rep_a.rows, rep_b.rows):
        assert ra.formula == rb.formula
        if ra.max_abs is not None:
            assert ra.max_abs == pytest.approx(rb.max_abs, rel=1e-12, abs=1e-14)


def test_merge_reports_keeps_per_formula_max():
    field, oneform = cubic_x(), b_const(2)
    reports = [
        verify_kropina_forms(kropina_point(field, oneform, 3, x, y))
        for x, y in seeded_points(2, 5, seed=67)
    ]
    merged = merge_reports(reports)
    assert merged.points == 5
    by_name = {r.formula: r for r in merged.rows}
    for rep in reports:
        for row in rep.rows:
            if row.max_abs is not None:
                assert by_name[row.formula].max_abs >= row.max_abs


def test_order2_classical_anchor():
    # order 2 gives the classical quadratic-over-linear metric; the oracle
    # tensor still satisfies g y y = Fbar^2
    with pytest.warns(RiemannianOrderWarning):
        p = kropina_point(riemann_identity(), b_const(2), 2, [0.0, 0.0], [0.8, 0.6])
    y = p.base.y
    assert rel_err(float(y @ p.gbar_oracle @ y), p.Fbar ** 2) <= 1e-9
    assert p.Fbar == pytest.approx((0.8 ** 2 + 0.6 ** 2) / 0.8, abs=1e-12)


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_stacked_rows_match_single_points(name):
    # every verify row of a stack equals the row of the same sample alone,
    # so no axis mixes samples
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=5)
    stacked = report.point_report(doc.field, doc.oneform, doc.m, xs, ys)
    singles = [report.point_report(doc.field, doc.oneform, doc.m, x, y) for x, y in accepted]
    assert stacked.points == len(accepted)
    for r, row in enumerate(stacked.rows):
        rows = [rep.rows[r] for rep in singles]
        assert all(single.formula == row.formula for single in rows)
        if row.max_abs is None:
            assert all(single.max_abs is None for single in rows), row.formula
            continue
        assert_stack_matches(row.max_abs, [single.max_abs for single in rows], row.formula)
        assert_stack_matches(row.max_rel, [single.max_rel for single in rows], row.formula)
        np.testing.assert_array_equal(row.x, xs)
        np.testing.assert_array_equal(row.y, ys)
    merged = merge_reports([stacked])
    assert merged.points == len(accepted)
    for row, single in zip(merged.rows, merge_reports(singles).rows):
        assert row.formula == single.formula
        assert (row.max_abs is None) == (single.max_abs is None)


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
        report.point_report(field, oneform, 3, xs, ys)
    assert exc.value.sample == 4

    real_dX = spray.transform_tail_x_derivatives

    def dX(bundle, m):
        out = real_dX(bundle, m)
        if len(out) > 2:
            out[2] = np.nan
        return out

    monkeypatch.setattr(spray, "transform_tail_x_derivatives", dX)
    with pytest.raises(NonFiniteResult, match="spray_split residual") as exc:
        report.point_report(field, oneform, 3, xs, ys)
    assert exc.value.sample == 2
    assert f"x={xs[2].tolist()}" in str(exc.value)
