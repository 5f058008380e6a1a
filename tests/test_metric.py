import inspect
import warnings

import numpy as np
import pytest

from conftest import (
    MAIN_FIXTURES,
    berwald_moore,
    cubic_x,
    diag_quartic,
    rel_err,
    riemann_identity,
    seeded_points,
)
from mrootfinsler import calculus, flatness, kropina, report, spray
from mrootfinsler.errors import DomainError, RiemannianOrderWarning, SingularMatrix
from mrootfinsler.metric import (
    COND_LIMIT,
    _invert_guarded,
    angular_tensor,
    metric_point,
    solve_guarded,
    symmetric_cond,
    verify_base_forms,
)

SQRT17 = np.sqrt(17.0)


def test_diag_quartic_golden_values():
    p = metric_point(diag_quartic(), [0.0, 0.0], [1.0, 2.0])
    assert p.A == pytest.approx(17.0, abs=1e-12)
    assert p.F == pytest.approx(17.0 ** 0.25, abs=1e-12)
    np.testing.assert_allclose(p.l, np.array([1.0, 8.0]) / 17.0 ** 0.75, atol=1e-12)
    assert p.g[0, 0] == pytest.approx(49.0 / (17.0 * SQRT17), abs=1e-12)
    assert float(p.y @ p.g @ p.y) == pytest.approx(SQRT17, abs=1e-12)


def test_berwald_moore_norm_at_ones():
    p = metric_point(berwald_moore(), [0.0] * 4, [1.0] * 4)
    assert p.F == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(p.A_i, [0.25] * 4, atol=1e-14)


def test_point_invariants():
    for name, make, _, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 25, seed=31):
            p = metric_point(field, x, y)
            assert rel_err(float(p.l @ y), p.F) <= 1e-9, name
            assert rel_err(float(y @ p.g @ y), p.F ** 2) <= 1e-9, name
            assert rel_err(p.A_inv @ p.A_i, y) <= 1e-9, name
            # degree-0 homogeneity of the fundamental tensor
            for lam in (0.5, 2.0):
                scaled = metric_point(field, x, lam * np.asarray(y))
                assert rel_err(scaled.g, p.g) <= 1e-9, name


def test_closed_forms_match_oracle():
    for name, make, _, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 20, seed=37):
            rep = verify_base_forms(metric_point(field, x, y))
            assert rep.g_residual <= 1e-8, name
            assert rep.inverse_residual <= 1e-8, name


def test_angular_tensor():
    for name, make, _, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 8, seed=41):
            p = metric_point(field, x, y)
            h = angular_tensor(p)
            assert float(np.max(np.abs(h @ y))) <= 1e-9 * (1 + np.max(np.abs(h))), name
            # g = h + l (x) l
            assert rel_err(h + np.outer(p.l, p.l), p.g) <= 1e-9, name
            # degree-0 homogeneity
            p2 = metric_point(field, x, 2.0 * np.asarray(y))
            assert rel_err(angular_tensor(p2), h) <= 1e-9, name


def test_riemannian_order_flagged_and_reduces():
    field = riemann_identity()
    with pytest.warns(RiemannianOrderWarning) as warned:
        p = metric_point(field, [0.0, 0.0], [0.6, 1.1])
    assert warned[0].filename == __file__  # the caller's line
    # at order 2 the fundamental tensor is the second contraction itself
    np.testing.assert_allclose(p.g, p.A_ij, atol=1e-10)
    energy = calculus.base_energy(field, 2)
    oracle = 0.5 * calculus.hess_y(energy, p.x, p.y)
    np.testing.assert_allclose(p.g, oracle, atol=1e-10)


# The parameters of each public evaluator: the order m is the field's
# (CoefficientField.m, the number of indices of its tensor), never an argument.
EVALUATOR_SHAPE = ("field", "oneform", "x", "y", "jets")
EVALUATOR_PARAMETERS = {
    metric_point: ("field", "x", "y", "A"),
    kropina.kropina_point: EVALUATOR_SHAPE,
    spray.pq_decomposition: EVALUATOR_SHAPE[:-1],
    spray.projective_residual: EVALUATOR_SHAPE[:-1],
    flatness.dually_flat_residual: EVALUATOR_SHAPE,
    flatness.proj_flat_residual: EVALUATOR_SHAPE,
    flatness.dually_flat_condition: EVALUATOR_SHAPE,
    flatness.proj_flat_condition: EVALUATOR_SHAPE,
    flatness.check_report: ("field", "oneform", "kind", "x", "y", "tol", "jets"),
    report.point_report: EVALUATOR_SHAPE,
}


@pytest.mark.parametrize("evaluator", EVALUATOR_PARAMETERS, ids=lambda f: f.__name__)
def test_evaluators_read_the_order_off_the_field(evaluator):
    assert tuple(inspect.signature(evaluator).parameters) == EVALUATOR_PARAMETERS[evaluator]


def test_domain_and_singularity_errors():
    with pytest.raises(DomainError):
        metric_point(berwald_moore(), [0.0] * 4, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        metric_point(cubic_x(), [-2.0, 0.0], [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        metric_point(diag_quartic(), [0.0, 0.0], [1e-9, 1.0])


def _near_the_limit(rng):
    """20 random symmetric matrices for each n of 2-5, indefinite ones included,
    with condition number 1% below COND_LIMIT, and 20 with it 1% above."""
    below, above = [], []
    for n in (2, 3, 4, 5):
        for _ in range(20):
            for factor, mats in ((0.99, below), (1.01, above)):
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                hi = 10.0 ** rng.uniform(-4.0, 4.0)
                eig = hi * np.concatenate(
                    [[1.0, 1.0 / (factor * COND_LIMIT)], 10.0 ** rng.uniform(-11.0, 0.0, n - 2)])
                mat = q @ np.diag(rng.choice([-1.0, 1.0], n) * eig) @ q.T
                mats.append(0.5 * (mat + mat.T))
    return below, above


def test_symmetric_cond_matches_numpy(rng):
    # the guard accepts the matrices below the limit and refuses those above,
    # naming max/min |eigenvalue|, the 2-norm condition number np.linalg.cond
    # gives.  At cond 1e12 both lose about 1e-4 of it to rounding, so they are
    # compared within 1e-3
    below, above = _near_the_limit(rng)
    for mat in below:
        assert symmetric_cond(mat, "{:.17g}") is None
    for mat in above:
        with pytest.raises(SingularMatrix) as exc:
            symmetric_cond(mat, "{:.17g}")
        assert float(str(exc.value)) == pytest.approx(np.linalg.cond(mat), rel=1e-3)
    assert symmetric_cond(np.array(below[20:40]), "{}") is None  # n = 3, stacked
    with pytest.raises(SingularMatrix) as exc:
        symmetric_cond(np.array(below[20:30] + above[30:40]), "{:.17g}")
    assert exc.value.sample == 10
    assert float(str(exc.value)) == pytest.approx(np.linalg.cond(above[30]), rel=1e-3)
    with pytest.raises(SingularMatrix, match="cond nan"):
        symmetric_cond(np.zeros((2, 2)), "cond {}")
    with pytest.raises(SingularMatrix, match="cond 1") as exc:
        symmetric_cond(np.array([np.eye(2), np.diag([1.0, 1e-13])]), "cond {:.0e}")
    assert exc.value.sample == 1


def test_symmetric_cond_one_matrix_as_a_stack_of_one(rng):
    # one matrix decides its clear case in Python floats, a stack in arrays:
    # both accept the same matrices and refuse the same ones with the same
    # message, the sample index aside
    below, above = _near_the_limit(rng)
    singular = [
        np.zeros((2, 2)), np.full((3, 3), np.nan), np.diag([np.nan, 1.0]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([np.inf, 1.0]),
        np.diag([-np.inf, 1.0, 2.0]), np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.diag([1.0, 0.0, 1.0]), np.diag([1.0, -0.0]),
    ]
    # indefinite, and within the limit but not clearly (cond 5e11)
    regular = [np.diag([1.0, -1.0]), np.diag([2.0, -3.0, 1e-3]), np.diag([1.0, 2.0e-12]), np.eye(4)]

    def outcome(matrix):
        try:
            with np.errstate(invalid="ignore"):  # LAPACK on an infinite entry
                return symmetric_cond(matrix, "cond {!r}")
        except SingularMatrix as exc:
            return str(exc)

    for mats, accepted in ((below + regular, True), (above + singular, False)):
        for mat in mats:
            one = outcome(mat)
            assert one == outcome(mat[None]) and (one is None) == accepted, mat


def _symmetric(rng, n, count, definite):
    """count random symmetric n x n matrices, cond below 1e8; indefinite unless `definite`."""
    q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
    eig = 10.0 ** rng.uniform(-4.0, 4.0, (count, n))
    if not definite:
        eig *= rng.choice([-1.0, 1.0], (count, n))
    mats = q @ (eig[..., None] * np.swapaxes(q, -1, -2))
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def test_linalg_gufuncs_match_numpy(rng):
    # the LAPACK gufuncs called directly must give np.linalg's results bit for
    # bit: one matrix, stacks, n = 2-4, definite and indefinite, the empty stack
    for n in (2, 3, 4):
        for definite in (True, False):
            mats = _symmetric(rng, n, 40, definite)
            rhs = rng.normal(size=(40, n))
            for a, b in [(mats[0], rhs[0]), (mats, rhs), (mats[:0], rhs[:0])]:
                assert np.array_equal(
                    solve_guarded(a, b, "{}"), np.linalg.solve(a, b[..., None])[..., 0]
                ), (n, a.shape)
                assert np.array_equal(_invert_guarded(a, "m"), np.linalg.inv(a)), (n, a.shape)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_degenerate_matrices_refused_without_warnings(bad):
    # a zero, NaN or inf matrix is refused by the condition guard with its
    # template message before LAPACK could warn or divide by zero
    one = np.full((2, 2), bad)
    stack = np.array([np.eye(2), 2 * np.eye(2), one, np.eye(2)])
    calls = [
        (lambda a: symmetric_cond(a, "cond {}"), "cond nan"),
        (lambda a: solve_guarded(a, np.ones(a.shape[:-1]), "g cond {:.3e}"), "g cond nan"),
        (lambda a: _invert_guarded(a, "A_ij"), "A_ij has condition number nan"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in calls:
            with pytest.raises(SingularMatrix) as exc:
                call(one)
            assert str(exc.value) == message and exc.value.sample is None
            with pytest.raises(SingularMatrix) as exc:
                call(stack)
            assert str(exc.value) == message and exc.value.sample == 2
