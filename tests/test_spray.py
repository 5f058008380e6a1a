import numpy as np
import pytest

import _oracles as oracles
from conftest import (
    MINKOWSKI_FIXTURES,
    ONE_FORM_SPECS,
    assert_stack_matches,
    b_bx,
    b_const,
    cubic_x,
    diag_quartic,
    rel_err,
    seeded_points,
    spec_samples,
)
from mrootfinsler import calculus
from mrootfinsler.metric import metric_point
from mrootfinsler.spray import (
    _contractions,
    _metric_bracket,
    integrate_geodesic,
    pq_decomposition,
    projective_residual,
    split_defect,
    spray_coeffs,
    transform_tail,
    transform_tail_x_derivatives,
)

# Golden values frozen from the independent finite-difference oracle
# (tests/_oracles.py): brute-force sprays for the cubic fixture.
GOLDEN_G_BASE = np.array([0.08333333333333333, 0.25])        # = (1/12, 1/4)
GOLDEN_G_KROPINA = np.array([0.1111111111111111, 1.0 / 3.0])  # = (1/9, 1/3)
GOLDEN_WEDGE_BX = 0.0750396762471513       # cubic-x + position-dependent b
GOLDEN_WEDGE_CONST = 0.018815469765697562  # cubic-x + constant b


def test_base_spray_golden():
    G = spray_coeffs(calculus.base_energy(cubic_x(), 3), [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(G, GOLDEN_G_BASE, atol=1e-7)


def test_kropina_spray_golden():
    G = spray_coeffs(
        calculus.kropina_energy(cubic_x(), b_const(2), 3), [0.0, 0.0], [1.0, 1.0]
    )
    np.testing.assert_allclose(G, GOLDEN_G_KROPINA, atol=1e-7)


def test_spray_homogeneity():
    energy = calculus.base_energy(cubic_x(), 3)
    for x, y in seeded_points(2, 10, seed=71):
        G = spray_coeffs(energy, x, y)
        for lam in (0.5, 2.0):
            G_scaled = spray_coeffs(energy, x, lam * np.asarray(y))
            assert rel_err(G_scaled, lam ** 2 * G) <= 1e-8


def test_minkowski_everything_vanishes():
    for name, make, m, make_b in MINKOWSKI_FIXTURES:
        field, oneform = make(), make_b()
        base_e = calculus.base_energy(field, m)
        krop_e = calculus.kropina_energy(field, oneform, m)
        for x, y in seeded_points(field.n, 15, seed=73):
            assert np.max(np.abs(spray_coeffs(base_e, x, y))) <= 1e-9, name
            assert np.max(np.abs(spray_coeffs(krop_e, x, y))) <= 1e-9, name
            point = pq_decomposition(field, oneform, m, x, y)
            assert np.max(np.abs(point.omega)) <= 1e-9, name
            assert np.max(np.abs(point.D)) <= 1e-9, name
            assert projective_residual(field, oneform, m, x, y) <= 1e-10, name


def test_analytic_x_derivative_chains_match_fd():
    # the closed split relies on the x-bracket V of the base metric, on omega
    # and on exact d(X_jl)/dx^k, all read off one derivative pass
    field, oneform, m = cubic_x(), b_bx(), 3
    x = np.array([0.2, -0.3])
    y = np.array([0.7, 1.1])
    A, beta = calculus.field_jets(field, oneform, x, y)
    V = _metric_bracket(calculus.base_energy(field, m).compose(A, beta), y)
    dX = transform_tail_x_derivatives(_contractions(A, beta, m), m)
    omega = pq_decomposition(field, oneform, m, x, y).omega

    def X_entry(xx, i, j):
        A, beta = calculus.field_jets(field, oneform, xx, y)
        return transform_tail(_contractions(A, beta, m), m)[i, j]

    def two_tau_sq(xx):
        p = metric_point(field, m, xx, y)
        beta = float(oneform.values_at(xx) @ y)
        return 2.0 * (p.F / beta) ** 2

    # dg[j, l, k] = d g_jl / dx^k, then V_l = sum_jk (dg_jl/dx^k - dg_jk/dx^l) y^j y^k
    def g_entry(xx, j, l):
        return metric_point(field, m, xx, y).g[j, l]

    dg = np.array([
        [oracles.fd_grad(lambda xx: g_entry(xx, j, l), x) for l in range(2)] for j in range(2)
    ])
    V_fd = np.einsum("jlk,j,k->l", dg, y, y) - np.einsum("jkl,j,k->l", dg, y, y)
    np.testing.assert_allclose(V, V_fd, atol=1e-7)
    for i in range(2):
        for j in range(2):
            fd_X = oracles.fd_grad(lambda xx: X_entry(xx, i, j), x)
            np.testing.assert_allclose(dX[:, i, j], fd_X, atol=1e-6)
    np.testing.assert_allclose(omega, oracles.fd_grad(two_tau_sq, x), atol=1e-8)


def test_pq_decomposition_fields():
    point = pq_decomposition(cubic_x(), b_const(2), 3, [0.0, 0.0], [1.0, 1.0])
    assert not point.degenerate_order4
    np.testing.assert_allclose(point.G, GOLDEN_G_BASE, atol=1e-9)
    np.testing.assert_allclose(point.Gbar, GOLDEN_G_KROPINA, atol=1e-9)
    np.testing.assert_allclose(point.D, point.Gbar - point.G, atol=1e-15)
    assert point.omega[0] == pytest.approx((8.0 / 3.0) * 2.0 ** (-1.0 / 3.0), abs=1e-12)
    assert point.omega[1] == 0.0
    defects = split_defect(point, [1.0, 1.0])
    for value in defects.values():
        assert np.isfinite(value)


def test_pq_decomposition_degenerate_order4():
    point = pq_decomposition(diag_quartic(), b_const(2), 4, [0.0, 0.0], [1.0, 2.0])
    assert point.degenerate_order4
    assert np.isnan(point.P_closed)
    assert np.all(np.isnan(point.Q_closed))
    # oracle-side fields always filled
    assert np.all(np.isfinite(point.G))
    assert np.all(np.isfinite(point.Gbar))
    assert np.all(np.isfinite(point.X))
    defects = split_defect(point, [1.0, 2.0])
    assert all(np.isnan(v) for v in defects.values())


def test_projective_residual_golden_and_invariance():
    residual = projective_residual(cubic_x(), b_bx(), 3, [0.2, -0.3], [0.7, 1.1])
    assert residual == pytest.approx(GOLDEN_WEDGE_BX, abs=1e-7)
    assert residual > 1e-4  # generic point: not projectively related

    r_const = projective_residual(cubic_x(), b_const(2), 3, [0.0, 0.0], [1.0, 1.0])
    assert r_const == pytest.approx(GOLDEN_WEDGE_CONST, abs=1e-7)

    for lam in (0.5, 2.0, 8.0):
        scaled = projective_residual(
            cubic_x(), b_bx(), 3, [0.2, -0.3], lam * np.array([0.7, 1.1])
        )
        assert abs(scaled - residual) <= 1e-10


def test_geodesic_straight_lines_on_minkowski():
    energy = calculus.base_energy(diag_quartic(), 4)
    path = integrate_geodesic(energy, [0.0, 0.0], [1.0, 2.0], 1.0, 100)
    assert not path.truncated
    t, x_end, v_end = path.samples[-1]
    assert t == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(x_end, [1.0, 2.0], atol=1e-10)
    np.testing.assert_allclose(v_end, [1.0, 2.0], atol=1e-10)
    # affine path and constant speed throughout
    norm_fn = calculus.mth_root_norm(diag_quartic(), 4)
    f0 = norm_fn([0.0, 0.0], [1.0, 2.0])
    for t, xs, vs in path.samples:
        np.testing.assert_allclose(xs, t * np.array([1.0, 2.0]), atol=1e-10)
        assert norm_fn(xs, vs) == pytest.approx(f0, abs=1e-10)


def test_geodesic_rk4_convergence():
    energy = calculus.base_energy(cubic_x(), 3)

    def endpoint(steps):
        p = integrate_geodesic(energy, [0.0, 0.0], [1.0, 0.5], 0.5, steps)
        assert not p.truncated
        return p.samples[-1][1]

    ref = endpoint(512)
    err_h = np.linalg.norm(endpoint(32) - ref)
    err_h2 = np.linalg.norm(endpoint(64) - ref)
    ratio = err_h / err_h2
    assert 12.0 <= ratio <= 20.0


def test_geodesic_truncates_on_domain_exit():
    energy = calculus.base_energy(cubic_x(), 3)
    path = integrate_geodesic(energy, [-0.5, 0.0], [-0.6, 1.0], 2.0, 200)
    assert path.truncated
    assert path.reason
    assert len(path.samples) < 201
    # every recorded state is finite and strictly ordered in t
    ts = [t for t, _, _ in path.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_stacked_sprays_match_single_points(name):
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=7)
    args = (doc.field, doc.oneform, doc.m)
    assert_stack_matches(
        projective_residual(*args, xs, ys),
        [projective_residual(*args, x, y) for x, y in accepted], "projective_residual",
    )
    for energy in (calculus.base_energy(doc.field, doc.m), calculus.kropina_energy(*args)):
        assert_stack_matches(
            spray_coeffs(energy, xs, ys),
            [spray_coeffs(energy, x, y) for x, y in accepted], energy.name,
        )
