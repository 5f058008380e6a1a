import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from conftest import (
    MAIN_FIXTURES,
    ONE_FORM_SPECS,
    assert_stack_matches,
    b_bx,
    b_const,
    berwald_moore,
    cubic_x,
    diag_quartic,
    rel_err,
    seeded_points,
    spec_samples,
)
from mrootfinsler import calculus
from mrootfinsler.calculus import Jet, ScalarFunction
from mrootfinsler.errors import DomainError, NonFiniteResult, RiemannianOrderWarning
from mrootfinsler.fields import CoefficientField, OneFormField, Polynomial


def fixture_functions(field, oneform, m):
    return (
        calculus.mth_root_norm(field, m),
        calculus.base_energy(field, m),
        calculus.kropina_norm(field, oneform, m),
        calculus.kropina_energy(field, oneform, m),
    )


def test_grad_y_of_diag_form():
    fn = ScalarFunction("form", diag_quartic(), 1.0)
    grad = calculus.derivatives(fn, [0.0, 0.0], [1.0, 2.0]).grad_y
    np.testing.assert_allclose(grad, [4.0, 32.0], atol=1e-12)


def test_hess_of_bilinear_product():
    # f = y1 * y2 (entry a_12 = 1/2 times its multiplicity 2) has constant
    # Hessian [[0,1],[1,0]]
    fn = ScalarFunction("form", CoefficientField.constant(2, 2, {(1, 2): 0.5}), 1.0)
    hess = calculus.hess_y(fn, [0.0, 0.0], [3.7, 2.5])
    np.testing.assert_array_equal(hess, [[0.0, 1.0], [1.0, 0.0]])


def test_minkowski_x_gradient_is_zero():
    fn = calculus.kropina_energy(diag_quartic(), b_const(2), 4)
    grad = calculus.grad_x(fn, [0.3, -0.9], [1.0, 2.0])
    np.testing.assert_array_equal(grad, [0.0, 0.0])
    np.testing.assert_array_equal(calculus.mixed_xy(fn, [0.3, -0.9], [1.0, 2.0]), np.zeros((2, 2)))


def test_cubic_x_gradients():
    fn = ScalarFunction("form", cubic_x(), 1.0)
    np.testing.assert_allclose(
        calculus.grad_x(fn, [0.0, 0.0], [1.0, 1.0]), [2.0, 0.0], atol=1e-14
    )
    mixed = calculus.mixed_xy(fn, [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(mixed[0], [3.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(mixed[1], [0.0, 0.0], atol=1e-14)


def test_hessian_exactly_symmetric():
    for name, make, m, make_b in MAIN_FIXTURES:
        field = make()
        fn = calculus.kropina_energy(field, make_b(), m)
        for x, y in seeded_points(field.n, 10, seed=5):
            hess = calculus.hess_y(fn, x, y)
            assert np.array_equal(hess, hess.T), name


def test_norm_euler_identity():
    # degree-1 homogeneity: grad_y(F) . y = F
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        fn = calculus.mth_root_norm(field, m)
        for x, y in seeded_points(field.n, 50, seed=23):
            value = fn(x, y)
            grad = calculus.derivatives(fn, x, y).grad_y
            assert rel_err(float(grad @ y), value) <= 1e-10, name


def test_fd_check_fixture_functions():
    # the fixtures, and cubic_x with the x-dependent one-form b_bx
    for name, make, m, make_b in MAIN_FIXTURES + (("cubic-x-bx", cubic_x, 3, b_bx),):
        field = make()
        for f in fixture_functions(field, make_b(), m):
            for x, y in seeded_points(field.n, 12, seed=29):
                for order in (1, 2):
                    rep = calculus.fd_check(f, x, y, order)
                    assert rep.max_rel <= 1e-6, (name, f.name, order)


def test_fd_check_sees_the_xx_block(monkeypatch):
    # an error of 1e-3 in d2f/dx1dx1 alone must show in the order-2 check
    compose = ScalarFunction.compose

    def spoiled(self, jets):
        jet = compose(self, jets)
        jet.hess[..., 0, 0] += 1e-3
        return jet

    monkeypatch.setattr(ScalarFunction, "compose", spoiled)
    fn = calculus.kropina_energy(cubic_x(), b_const(2), 3)
    (x, y), = seeded_points(2, 1, seed=29)
    assert calculus.fd_check(fn, x, y, 1).max_rel <= 1e-6
    assert calculus.fd_check(fn, x, y, 2).max_rel > 1e-6


def test_fd_check_constant_function():
    fn = ScalarFunction("const", diag_quartic(), 0.0)  # A^0 = 1
    rep1 = calculus.fd_check(fn, np.zeros(2), np.array([1.0, 2.0]), 1)
    rep2 = calculus.fd_check(fn, np.zeros(2), np.array([1.0, 2.0]), 2)
    assert rep1.max_abs <= 1e-14
    assert rep2.max_abs <= 1e-14


def test_fd_check_berwald_moore_norm():
    fn = calculus.mth_root_norm(berwald_moore(), 4)
    rep = calculus.fd_check(fn, np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert rep.max_rel <= 1e-6


def test_domain_guards():
    fn = calculus.mth_root_norm(cubic_x(), 3)
    with pytest.raises(DomainError):
        fn([-2.0, 0.0], [1.0, 1.0])  # coefficient 1 + x^1 < 0
    kr = calculus.kropina_norm(diag_quartic(), b_const(2), 4)
    with pytest.raises(DomainError):
        kr([0.0, 0.0], [0.0, 1.0])  # one-form vanishes


def test_pow_domain():
    def jets(*values):  # a pass with one group per value
        block = np.zeros((len(values), 1 + 4 + 16))
        block[:, 0], block[:, 1:5] = values, 1.0
        return Jet.of(block, 4)

    with pytest.raises(NonFiniteResult):
        calculus.power(jets(-2.0), (0.5,))
    with pytest.raises(NonFiniteResult):
        calculus.power(jets(1.0, 0.0), (1.0, -1.0))
    assert calculus.power(jets(-2.0), (-1.0,)).val == -0.5
    assert calculus.power(jets(1.0, -2.0), (1.0, -1.0)).val == -0.5


def test_expression_dx_matches_fd():
    # analytic d/dx of the transformed energy vs independent differences
    import _oracles as oracles

    field = cubic_x()
    fn = calculus.kropina_energy(field, b_const(2), 3)
    x = np.array([0.2, -0.1])
    y = np.array([0.8, 1.4])
    fd = oracles.fd_grad(lambda xx: fn(xx, y), x)
    np.testing.assert_allclose(calculus.grad_x(fn, x, y), fd, atol=1e-8)
    fdm = oracles.fd_mixed(fn, x, y)
    np.testing.assert_allclose(calculus.mixed_xy(fn, x, y), fdm, atol=1e-7)


@given(
    a=st.floats(min_value=0.2, max_value=3, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c=st.floats(min_value=0.5, max_value=3, allow_nan=False),
    s=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    pq=st.sampled_from([(1.0 / 3.0, 0.0), (2.0 / 3.0, -1.0), (4.0 / 3.0, -2.0), (1.0, 1.0)]),
)
@settings(max_examples=40, deadline=None)
def test_jet_arithmetic_against_hand_rules(a, sign, b, c, s, pq):
    # A = 3 (1 + x1) u^2 v (entry a_112 = 1 + x1, multiplicity 3), beta = c v:
    # f = A^p beta^q is the monomial 3^p c^q (1 + x1)^p u^(2p) v^(p+q) in
    # z = (1 + x1, x2, u, v), whose derivatives follow the power rule
    p, q = pq
    u, v = sign * a, abs(b) + 1.0
    field = CoefficientField(2, 3, {(1, 1, 2): Polynomial(2, [((0, 0), 1.0), ((1, 0), 1.0)])})
    fn = ScalarFunction("f", field, p, OneFormField.constant(2, [0.0, c]), q)
    jet = calculus.derivatives(fn, [s, 0.0], [u, v])

    f = 3.0 ** p * c ** q * (1 + s) ** p * (u * u) ** p * v ** (p + q)
    e = np.array([p, 0.0, 2 * p, p + q])
    z = np.array([1 + s, 1.0, u, v])
    L = e / z
    assert jet.val == pytest.approx(f, rel=1e-12)
    np.testing.assert_allclose(jet.grad, f * L, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        jet.hess, f * (np.outer(L, L) - np.diag(e / z ** 2)), rtol=1e-12, atol=1e-12
    )


def test_scalar_function_reports_nonfinite():
    # A^2 of a form with 1e200 coefficients overflows at y = (1, 1): the
    # value and the derivative pass both report it instead of returning inf
    field = CoefficientField.constant(2, 2, {(1, 1): 1e200, (2, 2): 1e200})
    f = ScalarFunction("A^2", field, 2.0)
    assert f([0.0, 0.0], [1e-100, 1e-100]) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(NonFiniteResult):
        f([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(NonFiniteResult):
        calculus.derivatives(f, [0.0, 0.0], [1.0, 1.0])


def test_group_powers_match_scalar_powers(rng):
    # one call raises every group; for each exponent, the power and its two
    # derivatives must be bit for bit what `v ** e` with a scalar e gives,
    # including e = -1, 0.5, 2 where numpy takes a shortcut
    v = np.concatenate([rng.uniform(1e-3, 50.0, 3000), np.exp(rng.uniform(-30.0, 30.0, 3000))])
    cases = ((2.0 / 3.0, -1.0), (4.0 / 3.0, -2.0), (0.5, -1.0), (1.0, -2.0), (2.0,), (3.0,))
    for exponents in cases:
        out = calculus._power(np.stack([v] * len(exponents), axis=-1), exponents)
        for g, e in enumerate(exponents):
            ref = (v ** e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0))
            for r in range(3):
                assert np.array_equal(out[:, r, g], ref[r]), (exponents, r)
        single = calculus._power(np.array([v[7]] * len(exponents)), exponents)
        assert np.array_equal(single[0], [np.asarray(v[7]) ** e for e in exponents])


def test_coefficients_python_floats_match_the_array_branch(rng):
    # one point with positive values takes Python floats in _coefficients, a
    # stack of one the array branch (_power): f and C within 8 ulps of each
    # other, for the exponents of every energy at m = 2..8.  A float power
    # (libm) and numpy's array power (SIMD where available) may differ by an
    # ulp, and f and C are products of up to three of them: 4 ulps were seen.
    # A power that overflows a float falls back to the array branch and
    # raises what it raises
    values = np.concatenate([rng.uniform(1e-3, 50.0, 300), np.exp(rng.uniform(-30.0, 30.0, 300))])
    cases = [e for m in range(2, 9) for e in ((1.0 / m,), (2.0 / m,), (2.0 / m, -1.0),
                                              (4.0 / m, -2.0), (2.0 / m, -2.0))]
    for exponents in cases:
        for v in rng.choice(values, size=(100, len(exponents))):
            f, C = calculus._coefficients(v, exponents)
            f_ref, C_ref = calculus._coefficients(v[None], exponents)
            assert type(f) is float, exponents
            got, want = np.append(C, f), np.append(C_ref[0], f_ref[0])
            assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want))), (exponents, v)
    for v in (np.array([1e300]), np.array([1e300, 2.0])):
        exponents = (4.0 / 3.0, -2.0)[: len(v)]
        raised = []
        for values_ in (v, v[None]):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteResult) as exc:
                calculus._coefficients(values_, exponents)
            raised.append(str(exc.value))
        assert raised[0] == raised[1] and "overflows" in raised[0], raised


def test_compose_guards_name_first_failing_sample():
    # f = A beta on a hand-made pass of 5 samples: A = beta = 1e200 overflows
    # the value only, a NaN in a gradient or a Hessian spoils the derivatives
    # only; the stack raises what a loop over its samples meets first
    f = ScalarFunction("f", diag_quartic(), 1.0, b_const(2), 1.0)

    def pass_with(value_at=(), nan_grad_at=(), nan_hess_at=()):
        jets = Jet.of(np.ones((5, 2, 1 + 4 + 16)), 4)
        jets.val[list(value_at)] = 1e200
        jets.grad[list(nan_grad_at), 1, 2] = np.nan
        jets.hess[list(nan_hess_at), 0, 3, 3] = np.nan
        return jets

    cases = [
        (pass_with(value_at=[3, 4]), "f evaluated to inf", 3),
        (pass_with(nan_grad_at=[1, 4]), "derivatives of f are not finite", 1),
        (pass_with(nan_hess_at=[2]), "derivatives of f are not finite", 2),
        (pass_with(value_at=[2], nan_grad_at=[2]), "f evaluated to inf", 2),
        (pass_with(value_at=[3], nan_grad_at=[1]), "derivatives of f are not finite", 1),
    ]
    for jets, message, sample in cases:
        with pytest.raises(NonFiniteResult) as exc:
            f.compose(jets)
        assert (str(exc.value), exc.value.sample) == (message, sample)
        # the same sample alone, as a single point
        single = Jet.of(jets.block[sample], 4)
        with pytest.raises(NonFiniteResult) as exc:
            f.compose(single)
        assert (str(exc.value), exc.value.sample) == (message, None)
    assert np.isfinite(f.compose(pass_with()).hess).all()


ALL_SPECS = ("riemann_identity",) + ONE_FORM_SPECS


@pytest.mark.parametrize("name", ALL_SPECS)
def test_chain_rule_matches_product_rule(name):
    # the coefficient chain rule against the product rule it replaces, for
    # every energy of the fixture, from the pair pass and from the form's
    # own pass, at single points and on the stack: within 1e-14 of each
    # quantity's largest sum of |terms|, the Hessian exactly symmetric, and
    # the single points (Python-float coefficients) on the stacked results.
    # The y-Hessians of F and Fbar annihilate y, so their terms cancel: on
    # diag_quartic both rules lie up to 3.9e-14 of the largest entry from the
    # same rule in extended precision, which is why the bound is set on the terms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RiemannianOrderWarning)
        doc, accepted, (xs, ys) = spec_samples(name, 12, seed=3)
    energies = [calculus.mth_root_norm(doc.field, doc.m), calculus.base_energy(doc.field, doc.m)]
    if doc.oneform is not None:
        energies += [calculus.kropina_norm(doc.field, doc.oneform, doc.m),
                     calculus.kropina_energy(doc.field, doc.oneform, doc.m)]
    for f in energies:
        for oneform in dict.fromkeys((f.oneform, doc.oneform)):
            stacked = f.compose(calculus.field_jets(doc.field, oneform, xs, ys))
            singles = []
            for x, y in [(xs, ys)] + accepted:
                jets = calculus.field_jets(doc.field, oneform, x, y)
                jet = f.compose(jets)
                ref = oracles.product_rule_power(jets.val, jets.grad, jets.hess, f.exponents)
                terms = oracles.product_rule_power(
                    jets.val, jets.grad, jets.hess, f.exponents, absolute=True)
                for got, want, size in zip((jet.val, jet.grad, jet.hess), ref, terms):
                    axes = tuple(range(np.ndim(x) - 1, np.ndim(want)))
                    bound = 1e-14 * np.max(size, axis=axes, keepdims=True)
                    assert np.all(np.abs(got - want) <= bound), (name, f.name)
                assert np.array_equal(jet.hess, np.swapaxes(jet.hess, -1, -2)), (name, f.name)
                if np.ndim(x) == 1:
                    singles.append(jet)
            for key in ("val", "grad", "hess"):
                assert_stack_matches(getattr(stacked, key), [getattr(j, key) for j in singles],
                                     (name, f.name, key))
