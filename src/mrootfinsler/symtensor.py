"""Canonical multiset storage for fully symmetric coefficient tensors.

An order-m symmetric tensor over n variables keeps one value per sorted index
tuple.  Read as a form, each entry I is one term  mult(I) a_I y^e(I),  with
mult(I) the multiset multiplicity (the number of distinct permutations) and
e(I) the y-exponent row of I (how often each index occurs).  Evaluation and
the y-saturated contractions therefore reproduce the full dense tensor without
ever materialising n**m entries: the k-th contraction is the k-th y-derivative
of the form scaled by 1/(m(m-1)...(m-k+1)), read off a monomial derivative
table built by exponent decrement.  The fields layer differentiates the
x-dependent coefficient fields with the same tables.  Indices are 1-based in
every public signature.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, OrderOutOfRange


def index_multiplicity(indices) -> int:
    """Distinct permutations of an index multiset: m! / prod(count_i!)."""
    mult = math.factorial(len(indices))
    for c in Counter(indices).values():
        mult //= math.factorial(c)
    return mult


@dataclass(frozen=True)
class MultisetIndex:
    """Sorted index tuple plus its permutation multiplicity."""

    indices: tuple
    multiplicity: int


def canonicalize(raw_indices, n: int) -> MultisetIndex:
    """Sort an index tuple and attach its multiplicity.

    Idempotent on already-sorted input; raises IndexOutOfRange for entries
    outside 1..n.
    """
    idx = tuple(int(i) for i in raw_indices)
    for i in idx:
        if i < 1 or i > n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    srt = tuple(sorted(idx))
    return MultisetIndex(srt, index_multiplicity(srt))


class MonomialTable:
    """Monomials v^e_r in n variables with their derivatives by exponent decrement.

    The order-k table holds, for every row r and every k-tuple (j1..jk) of
    variables, the falling-factorial factor and the decremented exponents, so
    that derivatives(v, k)[k][r, j1, .., jk] = d^k v^e_r / dv_j1 .. dv_jk.
    Tables are built on first use and kept.  Exponents that would go negative
    are clipped to zero where their factor is already zero, so no negative
    power of a zero coordinate is ever formed.
    """

    def __init__(self, exponents, n: int):
        exps = np.array(exponents, dtype=int).reshape(-1, n)
        self.n = n
        self._tables = [(exps, np.ones(exps.shape[0]))]
        self._powers = np.arange(int(exps.max(initial=0)) + 1)
        self._axis = np.arange(n)

    def _table(self, k: int):
        while len(self._tables) <= k:
            exps, factor = self._tables[-1]
            self._tables.append((
                np.maximum(exps[..., None, :] - np.eye(self.n, dtype=int), 0),
                factor[..., None] * exps,
            ))
        return self._tables[k]

    def derivatives(self, v, order: int) -> list:
        """Every monomial and its derivatives at v, for orders 0..order."""
        powers = np.power.outer(np.asarray(v, dtype=float), self._powers)
        out = []
        for k in range(order + 1):
            exps, factor = self._table(k)
            out.append(factor * powers[self._axis, exps].prod(axis=-1))
        return out


class FormTerms:
    """Index multisets read as y-monomial terms: weights and exponent rows.

    Row t is the t-th key; its weight is the multiplicity of the key and its
    exponent row counts each index (the one-form is the order-1 case).  A
    coefficient field and every tensor it materialises share one instance, so
    the tables are built once per field.
    """

    def __init__(self, keys, n: int):
        self.weights = np.array([index_multiplicity(key) for key in keys], dtype=float)
        self.monomials = MonomialTable(
            [[key.count(i) for i in range(1, n + 1)] for key in keys], n
        )


class SymmetricTensor:
    """Order-m symmetric tensor; entries map sorted index tuples to values.

    Instances are immutable by convention: nothing in the package mutates
    `entries` after construction, so concurrent evaluation is safe.  `terms`
    may pass the FormTerms of the same keys in the same order; without it
    they are built on first use.
    """

    __slots__ = ("n", "m", "entries", "_terms")

    def __init__(self, n: int, m: int, entries: Mapping, terms: FormTerms = None):
        if n < 1:
            raise DimensionMismatch(f"dimension must be positive, got {n}")
        if m < 1:
            raise OrderOutOfRange(f"order must be positive, got {m}")
        canon = {}
        for key, value in entries.items():
            key = tuple(int(i) for i in key)
            if len(key) != m:
                raise IndexOutOfRange(f"index {key} does not have order {m}")
            if tuple(sorted(key)) != key:
                raise IndexOutOfRange(f"index {key} is not sorted non-decreasing")
            for i in key:
                if i < 1 or i > n:
                    raise IndexOutOfRange(f"index {i} outside 1..{n}")
            canon[key] = float(value)
        self.n = int(n)
        self.m = int(m)
        self.entries = canon
        self._terms = terms

    def __repr__(self):
        return f"SymmetricTensor(n={self.n}, m={self.m}, {len(self.entries)} entries)"

    def value(self, raw_indices) -> float:
        """Full-tensor component at any permuted index (canonical lookup)."""
        key = canonicalize(raw_indices, self.n)
        if len(key.indices) != self.m:
            raise IndexOutOfRange(f"index {raw_indices} does not have order {self.m}")
        return self.entries.get(key.indices, 0.0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def _check_vector(self, y):
        if len(y) != self.n:
            raise DimensionMismatch(f"vector has length {len(y)}, expected {self.n}")

    def _derivative(self, y, k: int) -> np.ndarray:
        """k-th y-derivative of the form: the weighted sum of monomial derivatives."""
        if self._terms is None:
            self._terms = FormTerms(list(self.entries), self.n)
        values = np.fromiter(self.entries.values(), float, len(self.entries))
        monomials = self._terms.monomials.derivatives(y, k)[k]
        return np.tensordot(self._terms.weights * values, monomials, axes=1)

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
