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
from mrootfinsler import calculus
from mrootfinsler.errors import DomainError, RiemannianOrderWarning, SingularMatrix
from mrootfinsler.metric import angular_tensor, metric_point, verify_base_forms

SQRT17 = np.sqrt(17.0)


def test_diag_quartic_golden_values():
    p = metric_point(diag_quartic(), 4, [0.0, 0.0], [1.0, 2.0])
    assert p.A == pytest.approx(17.0, abs=1e-12)
    assert p.F == pytest.approx(17.0 ** 0.25, abs=1e-12)
    np.testing.assert_allclose(p.l, np.array([1.0, 8.0]) / 17.0 ** 0.75, atol=1e-12)
    assert p.g[0, 0] == pytest.approx(49.0 / (17.0 * SQRT17), abs=1e-12)
    assert float(p.y @ p.g @ p.y) == pytest.approx(SQRT17, abs=1e-12)


def test_berwald_moore_norm_at_ones():
    p = metric_point(berwald_moore(), 4, [0.0] * 4, [1.0] * 4)
    assert p.F == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(p.A_i, [0.25] * 4, atol=1e-14)


def test_point_invariants():
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 25, seed=31):
            p = metric_point(field, m, x, y)
            assert rel_err(float(p.l @ y), p.F) <= 1e-9, name
            assert rel_err(float(y @ p.g @ y), p.F ** 2) <= 1e-9, name
            assert rel_err(p.A_inv @ p.A_i, y) <= 1e-9, name
            # degree-0 homogeneity of the fundamental tensor
            for lam in (0.5, 2.0):
                scaled = metric_point(field, m, x, lam * np.asarray(y))
                assert rel_err(scaled.g, p.g) <= 1e-9, name


def test_closed_forms_match_oracle():
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 20, seed=37):
            rep = verify_base_forms(metric_point(field, m, x, y))
            assert rep.g_residual <= 1e-8, name
            assert rep.inverse_residual <= 1e-8, name


def test_angular_tensor():
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 8, seed=41):
            p = metric_point(field, m, x, y)
            h = angular_tensor(p)
            assert float(np.max(np.abs(h @ y))) <= 1e-9 * (1 + np.max(np.abs(h))), name
            # g = h + l (x) l
            assert rel_err(h + np.outer(p.l, p.l), p.g) <= 1e-9, name
            # degree-0 homogeneity
            p2 = metric_point(field, m, x, 2.0 * np.asarray(y))
            assert rel_err(angular_tensor(p2), h) <= 1e-9, name


def test_riemannian_order_flagged_and_reduces():
    field = riemann_identity()
    with pytest.warns(RiemannianOrderWarning):
        p = metric_point(field, 2, [0.0, 0.0], [0.6, 1.1])
    assert p.order_flag
    # at order 2 the fundamental tensor is the second contraction itself
    np.testing.assert_allclose(p.g, p.A_ij, atol=1e-10)
    energy = calculus.base_energy(field, 2)
    oracle = 0.5 * calculus.hess_y(energy, p.x, p.y)
    np.testing.assert_allclose(p.g, oracle, atol=1e-10)


def test_domain_and_singularity_errors():
    with pytest.raises(DomainError):
        metric_point(berwald_moore(), 4, [0.0] * 4, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        metric_point(cubic_x(), 3, [-2.0, 0.0], [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        metric_point(diag_quartic(), 4, [0.0, 0.0], [1e-9, 1.0])
