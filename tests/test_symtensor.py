import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAIN_FIXTURES, berwald_moore, diag_quartic, rel_err, seeded_points
from mrootfinsler import calculus
from mrootfinsler.errors import DimensionMismatch, IndexOutOfRange, OrderOutOfRange
from mrootfinsler.symtensor import SymmetricTensor, canonicalize, index_multiplicity


def test_canonicalize_examples():
    ms = canonicalize((2, 1, 1, 2), 2)
    assert ms == (1, 1, 2, 2)
    assert index_multiplicity(ms) == 6  # 4!/(2!2!)

    ms = canonicalize((1, 1, 1, 1), 2)
    assert ms == (1, 1, 1, 1)
    assert index_multiplicity(ms) == 1

    ms = canonicalize((4, 3, 2, 1), 4)
    assert ms == (1, 2, 3, 4)
    assert index_multiplicity(ms) == 24


def test_canonicalize_idempotent_and_range():
    ms = canonicalize((1, 2, 2), 3)
    again = canonicalize(ms, 3)
    assert again == ms == (1, 2, 2)
    with pytest.raises(IndexOutOfRange):
        canonicalize((0, 1), 2)
    with pytest.raises(IndexOutOfRange):
        canonicalize((1, 3), 2)


def test_eval_examples():
    bm = berwald_moore().tensor_at([0.0] * 4)
    assert bm.eval([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    diag = diag_quartic().tensor_at([0.0, 0.0])
    assert diag.eval([1.0, 2.0]) == pytest.approx(17.0, abs=1e-12)

    for _, make, _, _ in MAIN_FIXTURES:
        tensor = make().tensor_at([0.0] * make().n)
        assert tensor.eval([0.0] * tensor.n) == 0.0


def test_contract_examples():
    diag = diag_quartic().tensor_at([0.0, 0.0])
    y = [1.0, 2.0]
    np.testing.assert_allclose(diag.contract(y, 1), [1.0, 8.0], atol=1e-13)
    a2 = diag.contract(y, 2)
    np.testing.assert_allclose(a2, np.diag([1.0, 4.0]), atol=1e-13)

    bm = berwald_moore().tensor_at([0.0] * 4)
    np.testing.assert_allclose(bm.contract([1.0] * 4, 1), [0.25] * 4, atol=1e-14)


def test_contract_order_and_dimension_errors():
    diag = diag_quartic().tensor_at([0.0, 0.0])
    with pytest.raises(OrderOutOfRange):
        diag.contract([1.0, 1.0], 4)
    with pytest.raises(DimensionMismatch):
        diag.eval([1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch, match=r"^vector has shape \(1, 2\), expected \(2,\)$"):
        diag.contract([[1.0, 1.0]], 1)
    quad = SymmetricTensor(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
    with pytest.raises(OrderOutOfRange):
        quad.contract([1.0, 1.0], 3)


def test_entry_validation():
    # a key with one defect is refused with the message naming it
    with pytest.raises(IndexOutOfRange, match=r"^index \(2, 1, 1\) is not sorted non-decreasing$"):
        SymmetricTensor(2, 3, {(2, 1, 1): 1.0})
    with pytest.raises(IndexOutOfRange, match=r"^index \(1, 1\) does not have order 3$"):
        SymmetricTensor(2, 3, {(1, 1): 1.0})
    with pytest.raises(IndexOutOfRange, match=r"^index 3 outside 1\.\.2$"):
        SymmetricTensor(2, 3, {(1, 1, 3): 1.0})
    with pytest.raises(IndexOutOfRange, match=r"^index 0 outside 1\.\.2$"):
        SymmetricTensor(2, 3, {(0, 1, 1): 1.0})
    with pytest.raises(DimensionMismatch, match="^dimension must be positive, got 0$"):
        SymmetricTensor(0, 3, {})
    with pytest.raises(OrderOutOfRange, match="^order must be positive, got 0$"):
        SymmetricTensor(2, 0, {})
    cubic = SymmetricTensor(2, 3, {(1, 1, 2): 1.0})
    with pytest.raises(IndexOutOfRange, match=r"^index \(2, 1\) does not have order 3$"):
        cubic.value((2, 1))


def test_full_tensor_value_matches_canonical():
    tensor = SymmetricTensor(3, 3, {(1, 2, 3): 0.5, (1, 1, 2): 2.0})
    assert tensor.value((3, 1, 2)) == 0.5
    assert tensor.value((2, 1, 1)) == 2.0
    assert tensor.value((3, 3, 3)) == 0.0


def test_euler_chain_all_fixtures():
    # A_i y = A, A_ij y = A_i, A_ijk y = A_ij on 100 seeded points per fixture
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        for x, y in seeded_points(field.n, 100, seed=11):
            tensor = field.tensor_at(x)
            A = tensor.contract(y, 0)
            A1 = tensor.contract(y, 1)
            A2 = tensor.contract(y, 2)
            A3 = tensor.contract(y, 3)
            assert rel_err(A1 @ y, A) <= 1e-12, name
            assert rel_err(A2 @ y, A1) <= 1e-12, name
            assert rel_err(A3 @ y @ y, A1) <= 1e-12, name
            assert rel_err(np.tensordot(A3, y, axes=([2], [0])), A2) <= 1e-12, name


def test_homogeneity():
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        tensor = field.tensor_at([0.1] * field.n)
        for x, y in seeded_points(field.n, 10, seed=3):
            base = tensor.eval(y)
            for lam in (0.5, 2.0, 3.0):
                scaled = tensor.eval(lam * np.asarray(y))
                assert rel_err(scaled, lam ** m * base) <= 1e-12, name


def test_contract_matches_scaled_derivatives():
    # the calculus layer differentiates eval directly; contractions must agree
    for name, make, m, _ in MAIN_FIXTURES:
        field = make()
        fn = calculus.ScalarFunction("form", field, 1.0)
        for x, y in seeded_points(field.n, 5, seed=7):
            tensor = field.tensor_at(x)
            _, grad, hess = calculus.value_grad_hess_y(fn, x, y)
            assert rel_err(tensor.contract(y, 1), grad / m) <= 1e-9, name
            assert rel_err(tensor.contract(y, 2), hess / (m * (m - 1))) <= 1e-9, name
            if m >= 3:
                # third order against differences of the second contraction
                fd = np.array([
                    calculus.fd_gradient(
                        lambda ys, i=i, j=j: np.array(
                            [field.tensor_at(x).contract(yy, 2)[i, j] for yy in ys]
                        ),
                        y,
                    )
                    for i in range(field.n) for j in range(field.n)
                ]).reshape(field.n, field.n, field.n)
                assert rel_err(tensor.contract(y, 3), fd / (m - 2)) <= 1e-6, name


@given(
    perm=st.permutations([1, 1, 2, 3]),
)
@settings(max_examples=30, deadline=None)
def test_value_is_permutation_invariant(perm):
    tensor = SymmetricTensor(3, 4, {(1, 1, 2, 3): 2.5})
    assert tensor.value(tuple(perm)) == 2.5


@given(n=st.integers(min_value=2, max_value=4), m=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_multiplicities_partition_full_tensor(n, m):
    # canonical storage covers the dense tensor exactly once:
    # multiplicities over all sorted index tuples sum to n^m
    total = sum(
        index_multiplicity(idx)
        for idx in itertools.combinations_with_replacement(range(1, n + 1), m)
    )
    assert total == n ** m
