import contextlib
import re
import warnings
from functools import partial

import numpy as np
import pytest

import _oracles as oracles
from conftest import (
    FIXTURE_DIR,
    MINKOWSKI_FIXTURES,
    ONE_FORM_SPECS,
    assert_stack_matches,
    b_bx,
    b_const,
    cubic_x,
    diag_quartic,
    doc_samples,
    rel_err,
    seeded_points,
    spec_from,
    spec_samples,
)
from mrootfinsler import calculus, flatness, report, spray
from mrootfinsler.errors import (
    DomainError,
    FinslerError,
    NonFiniteResult,
    RiemannianOrderWarning,
    SingularMatrix,
)
from mrootfinsler.kropina import kropina_point
from mrootfinsler.metric import metric_point
from mrootfinsler.sampling import sample_points
from mrootfinsler.specfile import load_spec
from mrootfinsler.fields import CoefficientField, OneFormField, Polynomial
from mrootfinsler.spray import (
    _metric_bracket,
    integrate_geodesic,
    pq_decomposition,
    projective_residual,
    spray_coeffs,
    tail_x_derivatives,
    transform_tail,
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
            point = pq_decomposition(field, oneform, x, y)
            assert np.max(np.abs(point.omega)) <= 1e-9, name
            assert np.max(np.abs(point.D)) <= 1e-9, name
            assert projective_residual(field, oneform, x, y) <= 1e-10, name


# Three order-2 specs (a Riemannian alpha^2 = A with its one-form), each with
# its boxes: the tensor as {indices: {exponents: coeff}}, the one-form as
# {index: {exponents: coeff}}.  Measured against |Gbar| alone, the error of
# the first reaches 1.6e-11 where the terms cancel, and that of the radial one
# 1e-8 as beta -> 0 for x drawn from [-1, 1]^3: the bound is taken against the
# largest term, on these boxes.
CLASSICAL_SPECS = {
    "position-dependent": (2, {
        (1, 1): {(0, 0): 1.0, (2, 0): 1.0}, (1, 2): {(1, 1): 0.25},
        (2, 2): {(0, 0): 1.0, (0, 2): 0.5, (1, 0): 0.25},
    }, {1: {(0, 0): 1.0, (0, 1): 1.0}, 2: {(1, 0): 0.5}}, (-1.0, 1.0), (0.1, 2.0)),
    "rotation": (2, {(1, 1): {(0, 0): 1.0}, (2, 2): {(0, 0): 1.0}},
                 {1: {(0, 1): -1.0}, 2: {(1, 0): 1.0}}, (-1.0, 1.0), (-2.0, 2.0)),
    "radial": (3, {(i, i): {(0, 0, 0): 1.0} for i in (1, 2, 3)},
               {i: {tuple(int(j == i) for j in (1, 2, 3)): 1.0} for i in (1, 2, 3)},
               (0.2, 1.0), (0.1, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CLASSICAL_SPECS))
def test_kropina_spray_matches_the_classical_formula_at_order_two(name):
    # Gbar^i = G^i - (alpha^2 / (2 beta)) s^i_0
    #          + (alpha^2 s_0 / beta + r_00) (b^i / (2 b^2) - beta y^i / (alpha^2 b^2))
    # for the Kropina metric alpha^2 / beta (Chern & Shen 2005; Shen, Canad.
    # Math. Bull. 52, 2009), from the spec's A and beta alone
    n, tensor, one_form, x_box, y_box = CLASSICAL_SPECS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RiemannianOrderWarning)
        doc = spec_from(n, 2, tensor, one_form)
        check = partial(calculus.field_jets, doc.field, doc.oneform)
        samples = sample_points(n, 400, 83, x_box, y_box, domain_check=check)
        x, y = samples.x, samples.y
        G = spray_coeffs(calculus.base_energy(doc.field, 2), x, y)
        Gbar = spray_coeffs(calculus.kropina_energy(doc.field, doc.oneform, 2), x, y)
    assert len(x) == 400, name
    A, B = map(calculus.field_jets(doc.field, doc.oneform, x, y).group, (0, 1))
    alpha2, beta, b = A.val[:, None], B.val[:, None], B.grad_y
    a_inv = np.linalg.inv(0.5 * A.hess_yy)
    db = B.hess_xy                                   # [k, l] = d b_l / dx^k
    s = 0.5 * (np.swapaxes(db, -1, -2) - db)         # s_ij = (d_j b_i - d_i b_j) / 2
    b_up = np.einsum("nij,nj->ni", a_inv, b)
    b2 = np.einsum("ni,ni->n", b, b_up)[:, None]
    s_lower0 = np.einsum("nik,nk->ni", s, y)         # s_i0
    s_up0 = np.einsum("nil,nl->ni", a_inv, s_lower0)  # s^i_0
    s0 = np.einsum("ni,ni->n", b_up, s_lower0)[:, None]
    r00 = np.einsum("ni,nji,nj->n", y, db, y)[:, None] - 2 * np.einsum("nk,nk->n", b, G)[:, None]
    s_term = -(alpha2 / (2 * beta)) * s_up0
    r_term = (alpha2 * s0 / beta + r00) * (b_up / (2 * b2) - beta * y / (alpha2 * b2))
    scale = np.max(np.abs([G, s_term, r_term, Gbar]), axis=(0, 2))
    error = np.max(np.abs(Gbar - (G + s_term + r_term)), axis=-1)
    assert np.all(error <= 1e-12 * scale), (name, float(np.max(error / scale)))


def test_analytic_x_derivative_chains_match_fd():
    # the closed split relies on the x-bracket V of the base metric, on omega
    # and on exact d(X_jl)/dx^k, all read off one derivative pass
    field, oneform, m = cubic_x(), b_bx(), 3
    x = np.array([0.2, -0.3])
    y = np.array([0.7, 1.1])
    jets = calculus.field_jets(field, oneform, x, y)
    V = _metric_bracket(calculus.base_energy(field, m).compose(jets), y)
    dX = tail_x_derivatives(jets.group(0), jets.group(1), m)
    omega = pq_decomposition(field, oneform, x, y).omega

    def X_entry(xx, i, j):
        A, beta = map(calculus.field_jets(field, oneform, xx, y).group, (0, 1))
        return transform_tail(A.val, A.grad_y / m, beta.grad_y, beta.val, m)[i, j]

    def two_tau_sq(xx):
        p = metric_point(field, xx, y)
        beta = float(np.array([b(xx) for b in oneform.components]) @ y)
        return 2.0 * (p.F / beta) ** 2

    # dg[j, l, k] = d g_jl / dx^k, then V_l = sum_jk (dg_jl/dx^k - dg_jk/dx^l) y^j y^k
    def g_entry(xx, j, l):
        return metric_point(field, xx, y).g[j, l]

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


def _quintic_x():
    """n = 2, m = 5 with x-dependent A and beta: the tail's exponents
    (4 - m)/m and (4 - 2m)/m are both negative."""
    def poly(*terms):
        return Polynomial(2, terms)

    field = CoefficientField(2, 5, {
        (1, 1, 1, 1, 1): poly(((0, 0), 1.0), ((1, 0), 0.5)),
        (1, 1, 2, 2, 2): poly(((0, 0), 0.1), ((1, 1), 0.05)),
        (2, 2, 2, 2, 2): poly(((0, 0), 1.0), ((0, 2), 0.25)),
    })
    oneform = OneFormField(2, [poly(((0, 0), 1.0), ((0, 1), 0.5)), poly(((1, 0), 0.5),)])
    return field, oneform, 5


@pytest.mark.parametrize("name", ["cubic_x", "cubic_x_bx", "quintic_x"])
def test_complex_step_tail_matches_hand_chain(name):
    # the complex step through the verbatim tail against the tail
    # differentiated term by term, at one point and on a stack
    if name == "quintic_x":
        field, oneform, m = _quintic_x()
        accepted = seeded_points(2, 12, seed=19)
        xs, ys = (np.array(v) for v in zip(*accepted))
    else:
        doc, accepted, (xs, ys) = spec_samples(name, 12, seed=19)
        field, oneform, m = doc.field, doc.oneform, doc.m
    for x, y in [accepted[0], (xs, ys)]:
        A, beta = map(calculus.field_jets(field, oneform, x, y).group, (0, 1))
        got = tail_x_derivatives(A, beta, m)
        want = oracles.hand_chained_tail_x_derivatives(A, beta, m)
        assert got.shape == want.shape == np.shape(y)[:-1] + (2, 2, 2)
        assert np.abs(want).max() > 0.0, name
        for k in np.ndindex(np.shape(y)[:-1]):
            assert np.abs(got[k] - want[k]).max() <= 1e-13 * np.abs(want[k]).max(), (name, k)


def test_pq_decomposition_fields():
    assert np.isfinite(kropina_point(cubic_x(), b_const(2), [0.0, 0.0], [1.0, 1.0]).aux.p0)
    point = pq_decomposition(cubic_x(), b_const(2), [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(point.G, GOLDEN_G_BASE, atol=1e-9)
    np.testing.assert_allclose(point.Gbar, GOLDEN_G_KROPINA, atol=1e-9)
    np.testing.assert_allclose(point.D, point.Gbar - point.G, atol=1e-15)
    assert point.omega[0] == pytest.approx((8.0 / 3.0) * 2.0 ** (-1.0 / 3.0), abs=1e-12)
    assert point.omega[1] == 0.0
    rows = report.point_report(cubic_x(), b_const(2), [0.0, 0.0], [1.0, 1.0])
    for row in rows[-5:]:
        assert row.formula.startswith(("spray_", "relatedness_")), row.formula
        assert np.isfinite(row.max_abs) and np.isfinite(row.max_rel), row.formula


def test_pq_decomposition_degenerate_order4():
    snapshot = kropina_point(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    assert np.isnan(snapshot.aux.p0)
    point = pq_decomposition(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    assert np.isnan(point.P_closed)
    assert np.all(np.isnan(point.Q_closed))
    # oracle-side fields always filled
    assert np.all(np.isfinite(point.G))
    assert np.all(np.isfinite(point.Gbar))
    A, beta = snapshot.jets.group(0), snapshot.jets.group(1)
    assert np.all(np.isfinite(transform_tail(A.val, A.grad_y / 4, beta.grad_y, beta.val, 4)))
    rows = report.point_report(diag_quartic(), b_const(2), [0.0, 0.0], [1.0, 2.0])
    for row in rows[-5:]:
        assert row.formula.startswith(("spray_", "relatedness_")), row.formula
        assert row.max_abs is None and row.max_rel is None, row.formula
        assert row.note == "degenerate at m = 4", row.formula


def test_projective_residual_golden_and_invariance():
    residual = projective_residual(cubic_x(), b_bx(), [0.2, -0.3], [0.7, 1.1])
    assert residual == pytest.approx(GOLDEN_WEDGE_BX, abs=1e-7)
    assert residual > 1e-4  # generic point: not projectively related

    r_const = projective_residual(cubic_x(), b_const(2), [0.0, 0.0], [1.0, 1.0])
    assert r_const == pytest.approx(GOLDEN_WEDGE_CONST, abs=1e-7)

    for lam in (0.5, 2.0, 8.0):
        scaled = projective_residual(
            cubic_x(), b_bx(), [0.2, -0.3], lam * np.array([0.7, 1.1])
        )
        assert abs(scaled - residual) <= 1e-10


# A = (y^1)^m + B(x^2, x^3; y^2, y^3): with beta = dx^1, A^(2/m - 1) (y^1)^(m-1)
# and A are constant along a geodesic, so y^1 is and G^1 = 0.  beta is closed
# and r_00 = -2 G^1 = 0, so beta is parallel and Gbar = G, while G itself is
# not zero: the first result of the paper on a metric with non-zero sprays.
PARALLEL_TENSORS = {
    2: {(1, 1): {(0, 0, 0): 1.0},
        (2, 2): {(0, 0, 0): 1.0, (0, 0, 2): 1.0},
        (3, 3): {(0, 0, 0): 1.0, (0, 2, 0): 1.0},
        (2, 3): {(0, 1, 1): 0.25}},
    3: {(1, 1, 1): {(0, 0, 0): 1.0},
        (2, 2, 2): {(0, 0, 0): 1.0, (0, 0, 2): 1.0},
        (3, 3, 3): {(0, 0, 0): 1.0, (0, 2, 0): 0.5},
        (2, 2, 3): {(0, 0, 0): 0.1, (0, 1, 1): 0.025}},
    4: {(1, 1, 1, 1): {(0, 0, 0): 1.0},
        (2, 2, 2, 2): {(0, 0, 0): 1.0, (0, 0, 2): 1.0},
        (3, 3, 3, 3): {(0, 0, 0): 1.0, (0, 2, 0): 0.5},
        (2, 2, 3, 3): {(0, 0, 0): 0.25, (0, 1, 1): 0.0625}},
}


def _related(m, one_form):
    """check proj-related over 60 samples, and max |Gbar - G| / max |G| there."""
    doc = spec_from(3, m, PARALLEL_TENSORS[m], one_form)
    x, y = doc_samples(doc, 60, 0)
    rep = flatness.check_report(doc.field, doc.oneform, "proj-related", x, y,
                                flatness.DEFAULT_TOL)
    G = spray_coeffs(calculus.base_energy(doc.field, m), x, y)
    Gbar = spray_coeffs(calculus.kropina_energy(doc.field, doc.oneform, m), x, y)
    return rep, np.abs(Gbar - G).max() / np.abs(G).max()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_parallel_one_form_keeps_the_spray(m):
    # m = 2 is the Riemannian member, where the paper's closed forms do not apply
    with pytest.warns(RiemannianOrderWarning) if m == 2 else contextlib.nullcontext():
        rep, ratio = _related(m, {1: {(0, 0, 0): 1.0}})
    assert rep.verdict == "related-within-tol" and rep.max_residual <= 1e-13
    assert ratio <= 1e-13


def test_one_form_that_is_not_parallel_is_not_related():
    # beta = (1 + x^2) dx^1 over the m = 3 tensor: the wedge reads 0.625
    rep, _ = _related(3, {1: {(0, 0, 0): 1.0, (0, 1, 0): 1.0}})
    assert rep.verdict == "not-related" and rep.max_residual > 0.5


def test_geodesic_straight_lines_on_minkowski():
    energy = calculus.base_energy(diag_quartic(), 4)
    with pytest.raises(ValueError, match="^steps must be positive$"):
        integrate_geodesic(energy, [0.0, 0.0], [1.0, 2.0], 1.0, 0)
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
    args = (doc.field, doc.oneform)
    assert_stack_matches(
        projective_residual(*args, xs, ys),
        [projective_residual(*args, x, y) for x, y in accepted], "projective_residual",
    )
    for energy in (calculus.base_energy(doc.field, doc.m), calculus.kropina_energy(*args, doc.m)):
        assert_stack_matches(
            spray_coeffs(energy, xs, ys),
            [spray_coeffs(energy, x, y) for x, y in accepted], energy.name,
        )


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_spray_halves_after_the_solve_bit_for_bit(name):
    # 0.5 H_yy^-1 rhs is 0.25 (H_yy / 2)^-1 rhs exactly: scaling by a power of
    # two commutes with rounding, in the LU factors and in the substitutions
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=11)
    for energy in (calculus.base_energy(doc.field, doc.m),
                   calculus.kropina_energy(doc.field, doc.oneform, doc.m)):
        reference = oracles.spray_solving_g(calculus.derivatives(energy, xs, ys), ys)
        assert np.array_equal(spray_coeffs(energy, xs, ys), reference), energy.name
        for i, (x, y) in enumerate(accepted):
            reference = oracles.spray_solving_g(calculus.derivatives(energy, x, y), np.asarray(y))
            assert np.array_equal(spray_coeffs(energy, x, y), reference), (energy.name, i)


def test_spray_condition_guard():
    # y^1 -> 0 flattens the quartic's fundamental tensor in that direction
    energy = calculus.base_energy(diag_quartic(), 4)
    with pytest.raises(SingularMatrix, match="fundamental tensor condition number"):
        spray_coeffs(energy, [0.0, 0.0], [1e-9, 1.0])
    xs, ys = (np.array(v) for v in zip(*seeded_points(2, 6, seed=17)))
    ys[3] = [1e-9, 1.0]
    with pytest.raises(SingularMatrix, match="fundamental tensor condition number") as exc:
        spray_coeffs(energy, xs, ys)
    assert exc.value.sample == 3


def _raised(fn, v):
    """The type, message and sample of the FinslerError fn(v) raises."""
    with pytest.raises(FinslerError) as exc:
        fn(v)
    return type(exc.value), str(exc.value), exc.value.sample


def _first_refusal(fn, stack):
    """The type, message and row of the FinslerError a loop of fn over the rows meets first."""
    for i, v in enumerate(stack):
        try:
            fn(v)
        except FinslerError as exc:
            return type(exc), str(exc), i


def test_stage_raises_what_the_jet_path_raises():
    # each guard of an RK4 stage, at one point and at sample 3 of a stack: the
    # stage, under the errstate its callers open, and the Jet path raise the
    # same type, message and sample.  With RuntimeWarnings as errors,
    # spray_coeffs raises the same at the point (on the stack, in sample
    # order), and the integrator started there truncates with that message
    kx2 = Polynomial(2, [((0, 0), 1.0), ((2, 0), 2.5e307)])
    steep = CoefficientField(2, 3, {(1, 1, 1): kx2, (2, 2, 2): Polynomial.constant(2, 1.0)})
    huge = CoefficientField.constant(2, 3, {(1, 1, 1): 1e300, (2, 2, 2): 1.0})
    cases = [
        (calculus.base_energy(huge, 3), [0.0, 0.0], [1e4, 1.0], "overflow in the form value"),
        (calculus.kropina_energy(cubic_x(), b_bx(), 3), [-1.0, 0.5], [1.0, 1.0],
         "form value .* at or below floor"),
        (calculus.kropina_energy(cubic_x(), b_bx(), 3), [0.5, -1.0], [1.0, 1.0],
         "one-form value .* below degeneracy floor"),
        # the pass is finite; 2.5e307 x^1^2 makes its x-x Hessian overflow in F^2
        (calculus.base_energy(steep, 3), [0.0, 0.0], [1.0, -0.999],
         "derivatives of F\\^2 are not finite"),
        (calculus.base_energy(diag_quartic(), 4), [0.0, 0.0], [1e-9, 1.0],
         "fundamental tensor condition number"),
    ]
    xs, ys = (np.array(v) for v in zip(*seeded_points(2, 6, seed=17)))
    for energy, x, y, message in cases:
        stage = spray._stage_of(energy)

        def jet_path(v):
            at, along = v[..., :2], v[..., 2:]
            return spray._spray(calculus.derivatives(energy, at, along).block, along)

        def coeffs_at(v):
            return spray_coeffs(energy, v[..., :2], v[..., 2:])

        stack = np.concatenate((xs, ys), axis=-1)
        stack[3] = x + y
        for v, sample in ((np.array(x + y), None), (stack, 3)):
            with np.errstate(all="ignore"):
                raised = _raised(stage, v)
            assert raised == _raised(jet_path, v), (message, sample)
            assert re.match(message, raised[1]) and raised[2] == sample, (raised, sample)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                coeffs = _raised(coeffs_at, v)
                if sample is None:
                    path = integrate_geodesic(energy, x, y, 1.0, 1)
                    assert coeffs == raised, message
                    assert path.truncated and path.reason.endswith(raised[1]), (path.reason, message)
                else:
                    # spray_coeffs raises in sample order: what a loop over the rows meets first
                    assert coeffs == _first_refusal(coeffs_at, v), message


def test_rk4_overflow_truncates_the_path():
    # h = 1e308: the state of the second stage overflows to infinity; under the
    # integrator's errstate the stage's guard refuses it, and nothing warns
    doc = load_spec(FIXTURE_DIR / "cubic_x_bx.json")
    energy = calculus.base_energy(doc.field, doc.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = integrate_geodesic(energy, [0.0, 0.0], [10.0, 5.0], 1e308, 1)
    assert path.truncated
    assert path.reason == "overflow in the form value or derivatives at x=[inf, inf], y=[-inf, -inf]"
    assert len(path.samples) == 1 and path.samples[0][0] == 0.0


def test_overflowing_step_truncates_the_path():
    # x enters diag_quartic only with exponent 0, so every stage at x = inf is
    # finite and accepted; the step's new state is not, and truncates the path
    doc = load_spec(FIXTURE_DIR / "diag_quartic.json")
    for energy, steps in ((calculus.base_energy(doc.field, doc.m), 1),
                          (calculus.kropina_energy(doc.field, doc.oneform, doc.m), 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = integrate_geodesic(energy, [0.0, 0.0], [1e70, 1e70], 1e250, steps)
        assert path.truncated and path.reason == "non-finite state at step 1", energy.name
        [(t, x, v)] = path.samples
        assert (t, x.tolist(), v.tolist()) == (0.0, [0.0, 0.0], [1e70, 1e70]), energy.name


# A kropina geodesic of cubic_x whose state at t = 1.75 (h = 0.125) has a
# negative form value: the accepted states end at t = 1.625
OUTSIDE_X0 = [0.11290864530486688, 0.28458872586489115]
OUTSIDE_Y0 = [-1.2563749364211292, 1.9701736487042605]


def _rk4_stage_loop(energy, x0, y0, t_end, steps):
    """RK4 on separate x and v, stage by stage: the oracle of the packed state.
    A state outside the domain (its first stage, or field_jets at the final
    state, raises DomainError) leaves the path, named in the reason."""
    h = float(t_end) / steps
    x, v = np.array(x0, dtype=float), np.array(y0, dtype=float)
    states, reason = [(0.0, x, v)], ""

    def acc(xs, vs):
        # the Jet path, not the stage the integrator runs
        return -spray._spray(calculus.derivatives(energy, xs, vs).block, vs)

    def outside(exc):
        return f"state at t={states.pop()[0]!r} is outside the domain: {exc}"

    for i in range(1, steps + 1):
        try:
            k1x, k1v = v, acc(x, v)
        except DomainError as exc:
            reason = outside(exc)
            break
        except (SingularMatrix, NonFiniteResult) as exc:
            reason = str(exc)
            break
        try:
            k2x, k2v = v + 0.5 * h * k1v, acc(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k3x, k3v = v + 0.5 * h * k2v, acc(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k4x, k4v = v + h * k3v, acc(x + h * k3x, v + h * k3v)
        except (DomainError, SingularMatrix, NonFiniteResult) as exc:
            reason = str(exc)
            break
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        states.append((i * h, x, v))
    else:
        try:
            calculus.field_jets(energy.field, energy.oneform, x, v)
        except DomainError as exc:
            reason = outside(exc)
    return states, reason


def test_packed_rk4_matches_stage_loop():
    doc = load_spec(FIXTURE_DIR / "cubic_x_bx.json")
    cases = [
        (calculus.kropina_energy(doc.field, doc.oneform, doc.m), [0.0, 0.0], [1.0, 0.5], 0.5, 50),
        (calculus.base_energy(doc.field, doc.m), [0.0, 0.0], [1.0, 0.5], 0.5, 50),
    ]
    # n = 2-4, m = 3 and 4: the start and span of the CI run over every fixture
    for name in ONE_FORM_SPECS:
        spec = load_spec(FIXTURE_DIR / f"{name}.json")
        for energy in (calculus.kropina_energy(spec.field, spec.oneform, spec.m),
                       calculus.base_energy(spec.field, spec.m)):
            cases.append((energy, [0.0] * spec.n, [1.0, 0.5, 0.7, 0.9][: spec.n], 0.3, 30))
    accepted = len(cases)  # the cases below truncate
    cases += [
        # the truncating start of test_geodesic_truncates_on_domain_exit
        (calculus.base_energy(cubic_x(), 3), [-0.5, 0.0], [-0.6, 1.0], 2.0, 200),
        # a step lands outside the domain: the next step's first stage
        # refuses it, or, as the final state, field_jets does
        (calculus.kropina_energy(cubic_x(), b_const(2), 3), OUTSIDE_X0, OUTSIDE_Y0, 2.0, 16),
        (calculus.kropina_energy(cubic_x(), b_const(2), 3), OUTSIDE_X0, OUTSIDE_Y0, 1.75, 14),
    ]
    for i, (energy, x0, y0, t_end, steps) in enumerate(cases):
        path = integrate_geodesic(energy, x0, y0, t_end, steps)
        states, reason = _rk4_stage_loop(energy, x0, y0, t_end, steps)
        assert (path.truncated, path.reason) == (bool(reason), reason), energy.name
        assert path.truncated == (i >= accepted), (i, energy.name, reason)
        assert len(path.samples) == len(states), energy.name
        for (t, x, v), (t_ref, x_ref, v_ref) in zip(path.samples, states):
            assert t == t_ref and np.array_equal(x, x_ref) and np.array_equal(v, v_ref), (
                energy.name, t)


@pytest.mark.parametrize("t_end, steps", [(2.0, 16), (1.75, 14)])
def test_geodesic_keeps_no_state_outside_the_domain(t_end, steps):
    # the state at t = 1.75 is below the form floor: at t = 2 the next step's
    # first stage meets it, at t = 1.75 it is the final state
    energy = calculus.kropina_energy(cubic_x(), b_const(2), 3)
    path = integrate_geodesic(energy, OUTSIDE_X0, OUTSIDE_Y0, t_end, steps)
    assert path.truncated
    assert path.reason.startswith("state at t=1.75 is outside the domain: form value -2.158e-03")
    assert len(path.samples) == 14 and path.samples[-1][0] == 1.625
    for _, x, v in path.samples:
        calculus.field_jets(energy.field, energy.oneform, x, v)
    # the same steps stopped at t = 1.625 keep every state
    short = integrate_geodesic(energy, OUTSIDE_X0, OUTSIDE_Y0, 1.625, 13)
    assert not short.truncated and len(short.samples) == 14
    for (t, x, v), (t_ref, x_ref, v_ref) in zip(path.samples, short.samples):
        assert t == t_ref and np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_empty_stacks_give_empty_results(name):
    # a (0, n) stack is zero samples all the way down, not a numpy reshape error
    doc = load_spec(FIXTURE_DIR / f"{name}.json")
    n, args = doc.n, (doc.field, doc.oneform)
    xs = ys = np.empty((0, n))
    jets = calculus.field_jets(doc.field, doc.oneform, xs, ys)
    assert jets.block.shape == (0, 2, {2: 23, 3: 48, 4: 77}[n])
    for energy in (calculus.base_energy(doc.field, doc.m), calculus.kropina_energy(*args, doc.m)):
        assert spray_coeffs(energy, xs, ys).shape == (0, n), energy.name
    for row in report.point_report(*args, xs, ys):
        assert row.max_abs is None or np.shape(row.max_abs) == (0,), row.formula
    assert projective_residual(*args, xs, ys).shape == (0,)
