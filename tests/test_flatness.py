import numpy as np
import pytest

import _oracles as oracles
from conftest import (
    MINKOWSKI_FIXTURES,
    ONE_FORM_SPECS,
    assert_stack_matches,
    b_const,
    cubic_x,
    diag_quartic,
    doc_samples,
    riemann_x,
    seeded_points,
    spec_from,
    spec_samples,
)
from mrootfinsler import calculus, flatness
from mrootfinsler.errors import (
    DomainError,
    NonFiniteResult,
    RiemannianOrderWarning,
    SingularMatrix,
    raise_first,
)
from mrootfinsler.fields import CoefficientField, Polynomial
from mrootfinsler.flatness import (
    DEFAULT_TOL,
    check_report,
    dually_flat_condition,
    dually_flat_residual,
    intermediates,
    proj_flat_condition,
    proj_flat_residual,
)


def stack(points):
    """The points and the vectors of (x, y) pairs, stacked (N, n)."""
    xs, ys = zip(*points)
    return np.array(xs), np.array(ys)


# Golden values frozen from the independent finite-difference oracle
# (tests/_oracles.py) for the cubic fixture with the constant one-form.
GOLDEN_POINTS = [
    (np.array([0.1, 0.2]), np.array([0.9, 1.3]), 3.1103488803742585, 0.6441753602894894),
    (np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.909056924361792, 0.40900786054682525),
    (np.array([-0.3, 0.5]), np.array([1.2, 0.4]), 0.395425915411085, 0.10044825980846533),
]


def test_minkowski_residuals_vanish():
    for name, make, m, make_b in MINKOWSKI_FIXTURES:
        field, oneform = make(), make_b()
        for x, y in seeded_points(field.n, 34, seed=79):
            assert dually_flat_residual(field, oneform, m, x, y) <= 1e-10, name
            assert proj_flat_residual(field, oneform, m, x, y) <= 1e-10, name


def test_golden_residuals():
    field, oneform = cubic_x(), b_const(2)
    for x, y, df_expect, pf_expect in GOLDEN_POINTS:
        assert dually_flat_residual(field, oneform, 3, x, y) == pytest.approx(
            df_expect, abs=1e-6
        )
        assert proj_flat_residual(field, oneform, 3, x, y) == pytest.approx(
            pf_expect, abs=1e-6
        )


def _defect(fn, x, y, factor):
    """[fn]_{x^k y^l} y^k - factor [fn]_{x^l}, from the slices of one pass."""
    jet = calculus.derivatives(fn, x, y)
    return y @ jet.hess_xy - factor * jet.grad_x


def test_defect_homogeneity_degrees():
    # squared-norm defect is degree 2 in y, norm defect is degree 1
    field, oneform = cubic_x(), b_const(2)
    x = np.array([0.1, 0.2])
    y = np.array([0.9, 1.3])
    energy, norm = calculus.kropina_energy(field, oneform, 3), calculus.kropina_norm(field, oneform, 3)
    df = _defect(energy, x, y, 2.0)
    df2 = _defect(energy, x, 2.0 * y, 2.0)
    np.testing.assert_allclose(df2, 4.0 * df, atol=1e-8)
    pf = _defect(norm, x, y, 1.0)
    pf2 = _defect(norm, x, 2.0 * y, 1.0)
    np.testing.assert_allclose(pf2, 2.0 * pf, atol=1e-8)
    # the residuals are these defects, normalised
    for residual, fn, defect in ((dually_flat_residual, energy, df), (proj_flat_residual, norm, pf)):
        expected = np.abs(defect).max() / (1.0 + abs(fn(x, y)))
        assert residual(field, oneform, 3, x, y) == pytest.approx(expected, rel=1e-13)


def test_intermediates_exact_and_vs_fd():
    field, oneform = cubic_x(), b_const(2)
    x = np.array([0.15, -0.2])
    y = np.array([0.8, 1.4])
    itm = intermediates(field, oneform, x, y)
    assert itm.A0 == pytest.approx(float(itm.Axl @ y), abs=1e-14)

    fd_Ax = oracles.fd_grad(lambda xx: field.tensor_at(xx).eval(y), x)
    np.testing.assert_allclose(itm.Axl, fd_Ax, atol=1e-8)
    fd_A0l = y @ oracles.fd_mixed(lambda xx, yy: field.tensor_at(xx).eval(yy), x, y)
    np.testing.assert_allclose(itm.A0l, fd_A0l, atol=1e-7)
    np.testing.assert_allclose(itm.beta_l, np.zeros(2), atol=1e-14)


def test_dually_flat_condition_minkowski_reduces_to_oneform_terms():
    # constant coefficients kill every x-derivative; the verbatim right side
    # collapses to (m / (2 beta)) A b_l
    field, oneform = diag_quartic(), b_const(2)
    x = np.array([0.3, -0.7])
    y = np.array([1.0, 2.0])
    cond = dually_flat_condition(field, oneform, 4, x, y)
    np.testing.assert_allclose(cond.lhs, np.zeros(2), atol=1e-14)
    expected_rhs = (4.0 / (2.0 * 1.0)) * 17.0 * np.array([1.0, 0.0])
    np.testing.assert_allclose(cond.rhs, expected_rhs, atol=1e-12)
    assert cond.residual == pytest.approx(34.0, abs=1e-12)


def test_proj_flat_condition_minkowski_vanishes():
    field, oneform = diag_quartic(), b_const(2)
    cond = proj_flat_condition(field, oneform, 4, [0.4, 0.1], [1.0, 2.0])
    np.testing.assert_allclose(cond.lhs, np.zeros(2), atol=1e-14)
    np.testing.assert_allclose(cond.rhs, np.zeros(2), atol=1e-12)
    assert cond.residual <= 1e-12
    assert cond.residual_alt <= 1e-12


def test_conditions_match_independent_reassembly():
    # rebuild both right sides from finite-difference intermediates
    field, oneform, m = cubic_x(), b_const(2), 3
    x = np.array([0.1, 0.2])
    y = np.array([0.9, 1.3])
    A = field.tensor_at(x).eval(y)
    F = A ** (1.0 / m)
    b = np.array([p(x) for p in oneform.components])
    beta = float(b @ y)
    Ay = oracles.fd_grad(lambda yy: field.tensor_at(x).eval(yy), y)
    Axl = oracles.fd_grad(lambda xx: field.tensor_at(xx).eval(y), x)
    A0 = float(Axl @ y)
    A0l = y @ oracles.fd_mixed(lambda xx, yy: field.tensor_at(xx).eval(yy), x, y)
    beta_l = np.zeros(2)
    bky = 0.0

    rhs_df = (
        (1.0 / (2 * beta * F ** 2)) * ((4.0 - m) / m) * A0 * Ay
        + 0.5 * A0l
        - (A0 / beta) * b
        - (bky / beta) * Ay
        + (3 * m / (4 * beta ** 2)) * A * bky * b
        + (m / (2 * beta)) * A * beta_l
        - Axl
        + (m / (2 * beta)) * A * b
    )
    cond = dually_flat_condition(field, oneform, m, x, y)
    np.testing.assert_allclose(cond.rhs, rhs_df, atol=1e-7)

    rhs_pf = (
        ((2.0 - m) / m) * (A0 / A) * Ay
        + A0l
        - (A0 / beta) * b
        - (bky / beta) * Ay
        + (m / beta) * A * bky * b
    )
    cond_pf = proj_flat_condition(field, oneform, m, x, y)
    np.testing.assert_allclose(cond_pf.rhs, rhs_pf, atol=1e-7)


def test_proj_flat_condition_final_term_variants():
    # with a position-dependent one-form and beta != 1 the two printed final
    # terms differ by exactly (m A bky b)(1/beta - 1/beta^2)
    from conftest import b_bx

    field, oneform, m = cubic_x(), b_bx(), 3
    x = np.array([0.2, 0.4])
    y = np.array([0.9, 1.3])
    cond = proj_flat_condition(field, oneform, m, x, y)
    b = np.array([p(x) for p in oneform.components])
    beta = float(b @ y)
    itm = intermediates(field, oneform, x, y)
    bky = float(itm.beta_l @ y)
    A = field.tensor_at(x).eval(y)
    expected_gap = m * A * bky * b * (1.0 / beta - 1.0 / beta ** 2)
    np.testing.assert_allclose(cond.rhs - cond.rhs_alt, expected_gap, atol=1e-10)
    assert beta != pytest.approx(1.0)


def test_order2_prefactor_vanishes():
    # at order 2 the leading closed-form coefficient (2-m)/m is exactly zero,
    # so the right side loses its A0 Ay term even with x-dependence present
    field, oneform, m = riemann_x(), b_const(2), 2
    x = np.array([0.3, 0.1])
    y = np.array([0.7, 1.1])
    itm = intermediates(field, oneform, x, y)
    assert itm.A0 != 0.0
    with pytest.warns(RiemannianOrderWarning, match="order 2 is Riemannian") as warned:
        cond = proj_flat_condition(field, oneform, m, x, y)
    assert warned[0].filename == __file__  # the caller's line
    b = np.array([p(x) for p in oneform.components])
    beta = float(b @ y)
    rebuilt = itm.A0l - (itm.A0 / beta) * b  # remaining terms (beta_l = 0)
    np.testing.assert_allclose(cond.rhs, rebuilt, atol=1e-12)


def test_proj_flat_condition_misses_an_antisymmetric_one_form():
    # a = delta and beta = -x^2 dx^1 + x^1 dx^2 at m = 2, the classical Kropina
    # metric of a rotation: the condition reads the one-form's derivative only
    # through its symmetric part, which is zero here, so both readings of it
    # vanish exactly; the operational residual sees Fbar_{x^l} and reads
    # not-flat (160).  A blind spot of the printed condition, pinned here.
    with pytest.warns(RiemannianOrderWarning):
        doc = spec_from(2, 2, {(1, 1): {(0, 0): 1.0}, (2, 2): {(0, 0): 1.0}},
                        {1: {(0, 1): -1.0}, 2: {(1, 0): 1.0}})
        x, y = doc_samples(doc, 60, 0)
        cond = proj_flat_condition(doc.field, doc.oneform, 2, x, y)
        rep = check_report(doc.field, doc.oneform, 2, "proj-flat", x, y, DEFAULT_TOL)
    assert (cond.residual == 0.0).all() and (cond.residual_alt == 0.0).all()
    assert rep.max_closed_residual == 0.0
    assert rep.verdict == "not-flat" and rep.max_residual > 100.0


def test_residual_continuity_under_coefficient_perturbation():
    field, oneform, m = cubic_x(), b_const(2), 3
    x = np.array([0.1, 0.2])
    y = np.array([0.9, 1.3])
    base = dually_flat_residual(field, oneform, m, x, y)
    eps = 1e-6
    poly = Polynomial(2, [((0, 0), 1.0 + eps), ((1, 0), 1.0)])
    bumped = CoefficientField(
        2, 3, {(1, 1, 1): poly, (2, 2, 2): Polynomial(2, [((0, 0), 1.0), ((1, 0), 1.0)])}
    )
    moved = dually_flat_residual(bumped, oneform, m, x, y)
    assert abs(moved - base) <= 10.0 * eps


def test_check_report_verdicts():
    xs, ys = stack(seeded_points(2, 60, seed=83))
    rep = check_report(diag_quartic(), b_const(2), 4, "dually-flat", xs, ys, DEFAULT_TOL)
    assert (rep.kind, rep.verdict, rep.passed) == ("dually-flat", "flat-within-tol", True)
    assert rep.residuals.shape == (60,)
    assert rep.max_residual <= 1e-10

    rep2 = check_report(cubic_x(), b_const(2), 3, "dually-flat", xs, ys, DEFAULT_TOL)
    assert (rep2.verdict, rep2.passed) == ("not-flat", False)
    assert rep2.max_residual == rep2.residuals.max()

    rep3 = check_report(cubic_x(), b_const(2), 3, "proj-flat", xs[:10], ys[:10], DEFAULT_TOL)
    assert (rep3.kind, rep3.verdict, rep3.passed) == ("projectively-flat", "inconclusive", False)

    # a Minkowski form with a constant one-form is projectively related to F;
    # a form depending on x is not
    related = check_report(diag_quartic(), b_const(2), 4, "proj-related", xs, ys, DEFAULT_TOL)
    assert (related.kind, related.verdict, related.passed) == (
        "proj-related", "related-within-tol", True)
    assert related.max_residual <= DEFAULT_TOL
    assert np.isnan(related.max_closed_residual)
    unrelated = check_report(cubic_x(), b_const(2), 3, "proj-related", xs, ys, DEFAULT_TOL)
    assert (unrelated.verdict, unrelated.passed) == ("not-related", False)
    assert unrelated.max_residual == unrelated.residuals.max() > DEFAULT_TOL

    # the maxima of no samples are NaN for every kind
    none = np.empty((0, 2))
    for kind in ("dually-flat", "proj-flat", "proj-related"):
        empty = check_report(cubic_x(), b_const(2), 3, kind, none, none, DEFAULT_TOL)
        assert empty.verdict == "inconclusive" and empty.residuals.shape == (0,)
        assert np.isnan(empty.max_residual) and np.isnan(empty.max_closed_residual)

    with pytest.raises(KeyError):
        check_report(cubic_x(), b_const(2), 3, "unknown", xs, ys, DEFAULT_TOL)


def test_flatness_kinds_do_not_invert_the_second_contraction():
    # diag_quartic at y = (1e-7, 1): A_ij = 12 diag(y_i^2) has condition number
    # 1e14, past the guard, while Fbar is smooth there.  The flatness kinds read
    # A, F and A_y off the pass and never invert A_ij; proj-related solves g.
    xs, ys = np.tile([0.1, 0.2], (50, 1)), np.tile([1e-7, 1.0], (50, 1))
    for kind in ("dually-flat", "proj-flat"):
        rep = check_report(diag_quartic(), b_const(2), 4, kind, xs, ys, DEFAULT_TOL)
        assert (rep.verdict, rep.max_residual) == ("flat-within-tol", 0.0), kind
    with pytest.raises(SingularMatrix):
        check_report(diag_quartic(), b_const(2), 4, "proj-related", xs, ys, DEFAULT_TOL)


def test_check_report_raises_what_a_sample_loop_meets_first(monkeypatch):
    # sample 4 fails a guard inside the residual, sample 2 only the finite
    # guard after it: a loop over the samples meets sample 2 first, and so
    # must the stack
    xs, ys = stack(seeded_points(2, 6, seed=3))
    real = flatness.dually_flat_residual

    def residual(*args):
        out = real(*args)
        raise_first(np.arange(len(out)) == 4, DomainError, "refused at {}", out)
        out[2] = np.nan
        return out

    monkeypatch.setattr(flatness, "dually_flat_residual", residual)
    with pytest.raises(NonFiniteResult, match="dually-flat residual is not finite") as exc:
        check_report(cubic_x(), b_const(2), 3, "dually-flat", xs, ys, DEFAULT_TOL)
    assert exc.value.sample == 2


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_stacked_flatness_matches_single_points(name):
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=6)
    args = (doc.field, doc.oneform, doc.m)
    for fn in (dually_flat_residual, proj_flat_residual):
        assert_stack_matches(
            fn(*args, xs, ys), [fn(*args, x, y) for x, y in accepted], fn.__name__
        )
    for fn, keys in (
        (dually_flat_condition, ("lhs", "rhs", "residual")),
        (proj_flat_condition, ("lhs", "rhs", "residual", "rhs_alt", "residual_alt")),
    ):
        stacked = fn(*args, xs, ys)
        singles = [fn(*args, x, y) for x, y in accepted]
        for key in keys:
            assert_stack_matches(
                getattr(stacked, key), [getattr(c, key) for c in singles], f"{fn.__name__}.{key}"
            )
