"""Canonical multiset storage for fully symmetric coefficient tensors.

An order-m symmetric tensor over n variables keeps one value per sorted index
tuple.  Read as a form, each entry I is one term  mult(I) a_I y^e(I),  with
mult(I) the multiset multiplicity (the number of distinct permutations) and
e(I) the y-exponent row of I (how often each index occurs).  Evaluation and
the y-saturated contractions therefore reproduce the full dense tensor without
ever materialising n**m entries: the k-th contraction is the k-th y-derivative
of the form scaled by 1/(m(m-1)...(m-k+1)), read off a monomial derivative
table built by exponent decrement.  This serves a tensor materialised at one
point (fields.CoefficientField.tensor_at); the derivative pass of the
x-dependent fields is fields.TermTable, one matrix over the monomials of
(x, y).  Indices are 1-based in every public signature.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, OrderOutOfRange


def index_multiplicity(indices) -> int:
    """Distinct permutations of an index multiset: m! / prod(count_i!)."""
    mult = math.factorial(len(indices))
    for c in Counter(indices).values():
        mult //= math.factorial(c)
    return mult


def canonicalize(raw_indices, n: int) -> tuple:
    """The sorted index tuple (its multiplicity is index_multiplicity's).

    Idempotent on already-sorted input; raises IndexOutOfRange for entries
    outside 1..n.
    """
    idx = tuple(int(i) for i in raw_indices)
    for i in idx:
        if i < 1 or i > n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    return tuple(sorted(idx))


def key_exponents(key, n: int) -> tuple:
    """The y-exponent row of an index multiset: how often each index 1..n occurs."""
    return tuple(key.count(i) for i in range(1, n + 1))


class MonomialTable:
    """The weighted monomials mult(I) y^e(I) of index multisets I, with their
    order-k derivatives by exponent decrement (tables built on first use and
    kept).  An exponent that would go negative is clipped to zero where its
    factor is already zero, so no negative power of a zero coordinate is formed.
    """

    def __init__(self, keys, n: int):
        self._orders = [(
            np.array([key_exponents(key, n) for key in keys], dtype=int).reshape(-1, 1, n),
            np.array([index_multiplicity(key) for key in keys], dtype=float)[:, None],
        )]

    def derivatives(self, v, k: int) -> np.ndarray:
        """[r, c]: the n^k order-k derivatives of every monomial at v (n,), the
        tuple (j1..jk) flattened row-major."""
        while len(self._orders) <= k:
            exps, factor = self._orders[-1]
            rows, n = exps.shape[0], exps.shape[-1]
            self._orders.append((
                np.maximum(exps[:, :, None, :] - np.eye(n, dtype=int), 0).reshape(rows, -1, n),
                (factor[:, :, None] * exps).reshape(rows, -1),
            ))
        exps, factor = self._orders[k]
        powers = np.power.outer(np.asarray(v, dtype=float), np.arange(int(exps.max(initial=0)) + 1))
        return factor * powers[np.arange(exps.shape[-1]), exps].prod(axis=-1)


class SymmetricTensor:
    """Order-m symmetric tensor; entries map sorted index tuples to values.

    Instances are immutable by convention: nothing in the package mutates
    `entries` after construction, so concurrent evaluation is safe.  The
    MonomialTable of its entries is built on first use.
    """

    __slots__ = ("n", "m", "entries", "_table")

    def __init__(self, n: int, m: int, entries: Mapping):
        if n < 1:
            raise DimensionMismatch(f"dimension must be positive, got {n}")
        if m < 1:
            raise OrderOutOfRange(f"order must be positive, got {m}")
        canon = {}
        for key, value in entries.items():
            key = tuple(int(i) for i in key)
            if len(key) != m:
                raise IndexOutOfRange(f"index {key} does not have order {m}")
            if canonicalize(key, n) != key:
                raise IndexOutOfRange(f"index {key} is not sorted non-decreasing")
            canon[key] = float(value)
        self.n = int(n)
        self.m = int(m)
        self.entries = canon
        self._table = None

    def __repr__(self):
        return f"SymmetricTensor(n={self.n}, m={self.m}, {len(self.entries)} entries)"

    def value(self, raw_indices) -> float:
        """Full-tensor component at any permuted index (canonical lookup)."""
        key = canonicalize(raw_indices, self.n)
        if len(key) != self.m:
            raise IndexOutOfRange(f"index {raw_indices} does not have order {self.m}")
        return self.entries.get(key, 0.0)

    def _check_vector(self, y):
        if len(y) != self.n:
            raise DimensionMismatch(f"vector has length {len(y)}, expected {self.n}")

    def _derivative(self, y, k: int) -> np.ndarray:
        """k-th y-derivative of the form: the sum of the weighted monomial derivatives."""
        if self._table is None:
            self._table = MonomialTable(list(self.entries), self.n)
        values = np.fromiter(self.entries.values(), float, len(self.entries))
        return (values @ self._table.derivatives(y, k)).reshape((self.n,) * k)

    def eval(self, y) -> float:
        """Evaluate the degree-m homogeneous form at y."""
        self._check_vector(y)
        return float(self._derivative(y, 0))

    def contract(self, y, k: int):
        """Saturate m-k slots with y, returning the order-k coefficient array.

        k = 0 gives the form value; k = 1, 2, 3 give the k-th y-derivative of
        the form scaled by 1/m, 1/(m(m-1)), 1/(m(m-1)(m-2)).
        """
        if k < 0 or k > min(3, self.m):
            raise OrderOutOfRange(f"contraction order {k} not in 0..{min(3, self.m)}")
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DimensionMismatch(f"vector has shape {y.shape}, expected ({self.n},)")
        if k == 0:
            return self.eval(y)
        scale = 1.0
        for r in range(k):
            scale /= self.m - r
        return self._derivative(y, k) * scale
