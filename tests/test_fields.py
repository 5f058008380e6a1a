import numpy as np
import pytest

import _oracles as oracles
from conftest import ONE_FORM_SPECS, b_bx, b_const, cubic_x, diag_quartic, spec_samples
from mrootfinsler import calculus
from mrootfinsler.errors import DimensionMismatch, DomainError
from mrootfinsler.fields import CoefficientField, OneFormField, Polynomial


def test_tensor_at_examples():
    field = cubic_x()
    t0 = field.tensor_at([0.0, 0.0])
    assert t0.entries[(1, 1, 1)] == 1.0
    assert t0.entries[(2, 2, 2)] == 1.0
    t1 = field.tensor_at([1.0, 0.0])
    assert t1.entries[(1, 1, 1)] == 2.0

    const = diag_quartic()
    a = const.tensor_at([0.3, -0.8]).entries
    b = const.tensor_at([5.0, 5.0]).entries
    assert a == b


def test_form_x_derivative_examples():
    # cubic-x: A = (1 + x^1)(y1^3 + y2^3), so dA/dx = (y1^3 + y2^3, 0) and
    # d2A/dx^1 dy = 3 (y1^2, y2^2); constant coefficients have no x-derivatives
    A, coeffs = cubic_x().terms.jet([0.7, -0.2], [1.0, 2.0])
    A = A.group(0)
    assert A.grad_x.tolist() == [9.0, 0.0]
    assert A.hess_xy.tolist() == [[3.0, 12.0], [0.0, 0.0]]
    assert coeffs.tolist() == [[1.7, 1.7]]
    A = diag_quartic().terms.jet([0.1, 0.1], [1.0, 2.0])[0].group(0)
    assert not A.grad_x.any() and not A.hess[:2].any()


def test_oneform_examples():
    bf = b_const(2)
    np.testing.assert_array_equal(bf.values_at([3.0, -1.0]), [1.0, 0.0])
    beta = bf.terms.jet([3.0, -1.0], [1.0, 1.0])[0].group(0)
    np.testing.assert_array_equal(beta.hess_xy, np.zeros((2, 2)))

    bx = b_bx()
    np.testing.assert_array_equal(bx.values_at([0.0, 1.0]), [2.0, 0.0])
    beta = bx.terms.jet([0.0, 1.0], [3.0, 5.0])[0].group(0)
    jac = beta.hess_xy.T  # [i, k] = db_i/dx^k
    assert jac[0, 1] == 1.0
    assert jac[0, 0] == jac[1, 0] == jac[1, 1] == 0.0
    np.testing.assert_array_equal(beta.grad_y, [2.0, 0.0])
    assert beta.val == pytest.approx(6.0, abs=1e-15)


def test_form_x_derivatives_match_central_differences():
    field = cubic_x()
    x = np.array([0.25, -0.3])
    y = np.array([0.8, 1.4])
    A = field.terms.jet(x, y)[0].group(0)
    fd = oracles.fd_grad(lambda xx: field.tensor_at(xx).eval(y), x)
    assert np.all(np.abs(A.grad_x - fd) <= 1e-8 * (1 + np.abs(fd)))
    fd_mixed = oracles.fd_mixed(lambda xx, yy: field.tensor_at(xx).eval(yy), x, y)
    np.testing.assert_allclose(A.hess_xy, fd_mixed, atol=1e-7)


def test_oneform_jacobian_matches_central_differences():
    bx = b_bx()
    x = np.array([0.4, 0.9])
    jac = bx.terms.jet(x, [1.0, 1.0])[0].group(0).hess_xy.T
    for i in range(2):
        def comp(xx, i=i):
            return bx.values_at(xx)[i]
        fd = oracles.fd_grad(comp, x)
        np.testing.assert_allclose(jac[i], fd, atol=1e-8)


def test_beta_guard():
    field = diag_quartic()  # A > 0 at every y != 0, so only the one-form floor can fail
    check = calculus.domain_check(field, b_const(2))
    with pytest.raises(DomainError, match="one-form value"):
        check([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError, match="one-form value"):
        calculus.domain_check(field, OneFormField.constant(2, [0.0, 0.0]))([0.0, 0.0], [1.0, 1.0])
    assert check([0.0, 0.0], [2.0, 1.0])[1] == 2.0


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(2, [((0, 0), 1.0), ((0, 0), 2.0)])  # duplicate exponents
    with pytest.raises(ValueError):
        Polynomial(2, [((-1, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        Polynomial(2, [((0, 0, 0), 1.0)])
    poly = Polynomial(2, [((2, 1), 3.0)])
    assert poly([2.0, 5.0]) == 60.0
    # exact x-derivatives come from the field engine: A = poly(x) y1^2
    A = CoefficientField(2, 2, {(1, 1): poly}).terms.jet([2.0, 5.0], [1.0, 0.0])[0].group(0)
    assert A.grad_x.tolist() == [60.0, 12.0]  # (6 x1 x2, 3 x1^2)


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField(2, 3, {(2, 1, 1): Polynomial.constant(2, 1.0)})
    with pytest.raises(DimensionMismatch):
        CoefficientField(2, 3, {(1, 1): Polynomial.constant(2, 1.0)})
    field = cubic_x()
    with pytest.raises(DimensionMismatch):
        field.tensor_at([0.0, 0.0, 0.0])
    assert not field.is_constant()
    assert diag_quartic().is_constant()
    assert b_const(2).is_constant()
    assert not b_bx().is_constant()


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_pair_pass_matches_single_field_passes(name):
    # the fused table of (A, beta) must give each group exactly what the
    # form-only and the one-form-only tables give, guard scales included,
    # in the derivative pass and in the value pass (A and beta, not A + beta)
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=8)
    pair = doc.field.terms_with(doc.oneform)
    for x, y in [accepted[0], (xs, ys)]:
        jets, c = pair.jet(x, y)
        values, scale = pair.value(x, y)
        np.testing.assert_allclose(values, jets.val, rtol=1e-13)
        for g, table in enumerate((doc.field.terms, doc.oneform.terms)):
            alone_values, alone_scale = table.value(x, y)
            assert np.array_equal(values[..., g], alone_values[..., 0]), (name, g)
            assert np.array_equal(scale[..., g], alone_scale[..., 0]), (name, g)
            alone, c_alone = table.jet(x, y)
            for key in ("val", "grad", "hess"):
                assert np.array_equal(
                    getattr(jets.group(g), key), getattr(alone.group(0), key)
                ), (name, g, key)
            assert np.array_equal(
                np.abs(c[..., g, :]).max(axis=-1), np.abs(c_alone[..., 0, :]).max(axis=-1)
            ), (name, g)


def test_pair_pass_guards():
    # each floor of the derivative pass is the floor of the sampler's value pass
    field, oneform = cubic_x(), b_bx()
    for x, y, alone in (
        ([-1.0, 0.5], [1.0, 1.0], calculus.domain_check(field, None)),  # A = 0, beta = 1.5
        ([0.5, -1.0], [1.0, 1.0], calculus.domain_check(field, oneform)),  # beta = 0
    ):
        with pytest.raises(DomainError) as fused:
            calculus.field_jets(field, oneform, x, y)
        with pytest.raises(DomainError) as single:
            alone(x, y)
        assert str(fused.value) == str(single.value)
    # at x = (-1, -1) both the form coefficient 1 + x^1 and beta's 1 + x^2
    # vanish: the derivative pass names the one-form floor, the sampler's
    # value pass and the value of Fbar the form floor
    with pytest.raises(DomainError, match="one-form value"):
        calculus.field_jets(field, oneform, [-1.0, -1.0], [1.0, 1.0])
    value_passes = (calculus.domain_check(field, oneform), calculus.kropina_norm(field, oneform, 3))
    for value_pass in value_passes:
        with pytest.raises(DomainError, match="form value .* at or below floor"):
            value_pass([-1.0, -1.0], [1.0, 1.0])
    xs = np.array([[0.1, 0.2], [0.0, 0.3], [-1.0, -1.0], [-2.0, 0.1]])
    with pytest.raises(DomainError, match="one-form value") as exc:
        calculus.field_jets(field, oneform, xs, np.ones((4, 2)))
    assert exc.value.sample == 2
    with pytest.raises(DomainError, match="form value .* at or below floor"):
        calculus.field_jets(field, oneform, xs[[0, 1, 3]], np.ones((3, 2)))
