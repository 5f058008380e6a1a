import numpy as np
import pytest

import _oracles as oracles
from conftest import b_bx, b_const, cubic_x, diag_quartic
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
    assert A.grad_x.tolist() == [9.0, 0.0]
    assert A.hess_xy.tolist() == [[3.0, 12.0], [0.0, 0.0]]
    assert coeffs.tolist() == [1.7, 1.7]
    A, _ = diag_quartic().terms.jet([0.1, 0.1], [1.0, 2.0])
    assert not A.grad_x.any() and not A.hess[:2].any()


def test_oneform_examples():
    bf = b_const(2)
    np.testing.assert_array_equal(bf.values_at([3.0, -1.0]), [1.0, 0.0])
    beta, _ = bf.terms.jet([3.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(beta.hess_xy, np.zeros((2, 2)))

    bx = b_bx()
    np.testing.assert_array_equal(bx.values_at([0.0, 1.0]), [2.0, 0.0])
    beta, _ = bx.terms.jet([0.0, 1.0], [3.0, 5.0])
    jac = beta.hess_xy.T  # [i, k] = db_i/dx^k
    assert jac[0, 1] == 1.0
    assert jac[0, 0] == jac[1, 0] == jac[1, 1] == 0.0
    np.testing.assert_array_equal(beta.grad_y, [2.0, 0.0])
    assert bx.beta([0.0, 1.0], [3.0, 5.0]) == pytest.approx(6.0, abs=1e-15)


def test_form_x_derivatives_match_central_differences():
    field = cubic_x()
    x = np.array([0.25, -0.3])
    y = np.array([0.8, 1.4])
    A, _ = field.terms.jet(x, y)
    fd = oracles.fd_grad(lambda xx: field.tensor_at(xx).eval(y), x)
    assert np.all(np.abs(A.grad_x - fd) <= 1e-8 * (1 + np.abs(fd)))
    fd_mixed = oracles.fd_mixed(lambda xx, yy: field.tensor_at(xx).eval(yy), x, y)
    np.testing.assert_allclose(A.hess_xy, fd_mixed, atol=1e-7)


def test_oneform_jacobian_matches_central_differences():
    bx = b_bx()
    x = np.array([0.4, 0.9])
    jac = bx.terms.jet(x, [1.0, 1.0])[0].hess_xy.T
    for i in range(2):
        def comp(xx, i=i):
            return bx.values_at(xx)[i]
        fd = oracles.fd_grad(comp, x)
        np.testing.assert_allclose(jac[i], fd, atol=1e-8)


def test_beta_guard():
    bf = b_const(2)
    with pytest.raises(DomainError):
        bf.beta_checked([0.0, 0.0], [0.0, 1.0])
    zero = OneFormField.constant(2, [0.0, 0.0])
    with pytest.raises(DomainError):
        zero.beta_checked([0.0, 0.0], [1.0, 1.0])
    assert bf.beta_checked([0.0, 0.0], [2.0, 1.0]) == 2.0


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
    A, _ = CoefficientField(2, 2, {(1, 1): poly}).terms.jet([2.0, 5.0], [1.0, 0.0])
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
