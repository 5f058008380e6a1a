"""Position-dependent coefficients and the package's one derivative engine.

Restricting the x-dependence to polynomials keeps every x-derivative analytic,
so closed forms are adjudicated against an oracle with no extra noise from the
coefficient side.

Both the form A = a_I(x) y^I and the one-form beta = b_i(x) y^i are read as
terms  w_t c_t(x) y^e_t : c_t is an entry's polynomial, w_t its index
multiplicity (1 for the one-form) and e_t the y-exponent row of its index
multiset.  A TermTable evaluates the x-coefficients and their derivatives
first and only then contracts them with the y-monomial derivatives, giving the
value, the gradient and the Hessian over all 2n coordinates in one pass.
Multiplying the terms out into (x, y)-monomials instead would lose digits
where beta nearly cancels.  Tables come from exponent decrement and are built
once per field, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .symtensor import FormTerms, MonomialTable, SymmetricTensor, canonicalize

# A form value at or below this multiple of ||y||^m * max|a_I(x)| is outside
# the smooth domain of F = A^(1/m).
FORM_FLOOR = 1e-12
# |beta| below this multiple of ||y|| * max|b_i| counts as a vanishing one-form.
BETA_FLOOR = 1e-12


def check_form(value: float, max_abs: float, y, m: int) -> None:
    """Raise DomainError unless the form value clears its scale-aware floor."""
    floor = FORM_FLOOR * float(np.linalg.norm(y)) ** m * max(max_abs, 1e-300)
    if value <= floor:
        raise DomainError(f"form value {value:.3e} at or below floor {floor:.3e}")


def check_beta(value: float, b, y) -> None:
    """Raise DomainError when beta = b_i y^i is too close to zero."""
    floor = BETA_FLOOR * float(np.linalg.norm(y)) * float(np.max(np.abs(b)))
    if abs(value) <= floor:
        raise DomainError(
            f"one-form value {value:.3e} below degeneracy floor {floor:.3e}"
        )


class Polynomial:
    """Multivariate polynomial: tuple of (exponent tuple, coefficient) terms."""

    __slots__ = ("n", "monomials")

    def __init__(self, n: int, monomials):
        terms = []
        seen = set()
        for exps, coeff in monomials:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise DimensionMismatch(f"exponent tuple {exps} does not have length {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if exps in seen:
                raise ValueError(f"duplicate exponent tuple {exps}")
            seen.add(exps)
            terms.append((exps, float(coeff)))
        self.n = int(n)
        self.monomials = tuple(terms)

    @staticmethod
    def constant(n: int, value: float) -> "Polynomial":
        if value == 0.0:
            return Polynomial(n, [])
        return Polynomial(n, [((0,) * n, value)])

    def __call__(self, x) -> float:
        if len(x) != self.n:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.n}")
        total = 0.0
        for exps, coeff in self.monomials:
            term = coeff
            for i, e in enumerate(exps):
                for _ in range(e):
                    term *= x[i]
            total += term
        return total

    def is_constant(self) -> bool:
        return all(c == 0.0 or not any(e) for e, c in self.monomials)


@dataclass
class Jet:
    """A scalar with its gradient and Hessian over (x, y), the n x-coordinates first."""

    val: float
    grad: np.ndarray   # (2n,)
    hess: np.ndarray   # (2n, 2n), exactly symmetric

    @property
    def n(self) -> int:
        return self.grad.size // 2

    @property
    def grad_x(self) -> np.ndarray:
        return self.grad[: self.n]

    @property
    def grad_y(self) -> np.ndarray:
        return self.grad[self.n :]

    @property
    def hess_xy(self) -> np.ndarray:
        """[k, l] = d2 / dx^k dy^l."""
        return self.hess[: self.n, self.n :]

    @property
    def hess_yy(self) -> np.ndarray:
        return self.hess[self.n :, self.n :]


class TermTable:
    """The sum of terms w_t c_t(x) y^e_t: polynomials c_t over the terms of an index set."""

    def __init__(self, polys, y_terms: FormTerms):
        n = y_terms.monomials.n
        x_exps = sorted({exps for poly in polys for exps, _ in poly.monomials})
        column = {exps: j for j, exps in enumerate(x_exps)}
        self.K = np.zeros((len(polys), len(x_exps)))
        for t, poly in enumerate(polys):
            for exps, coeff in poly.monomials:
                self.K[t, column[exps]] = coeff
        self.n = n
        self.x = MonomialTable(x_exps, n)
        self.y_terms = y_terms

    def _check(self, v, what: str):
        if len(v) != self.n:
            raise DimensionMismatch(f"{what} has length {len(v)}, expected {self.n}")

    def coefficients(self, x) -> np.ndarray:
        """c_t(x), one per term."""
        self._check(x, "point")
        return self.K @ self.x.derivatives(x, 0)[0]

    def value(self, x, y):
        """The sum at (x, y), and the coefficients c_t(x)."""
        c = self.coefficients(x)
        self._check(y, "vector")
        y_terms = self.y_terms
        return float((y_terms.weights * c) @ y_terms.monomials.derivatives(y, 0)[0]), c

    def jet(self, x, y):
        """The sum as a Jet at (x, y), and the coefficients c_t(x)."""
        self._check(x, "point")
        self._check(y, "vector")
        x0, x1, x2 = self.x.derivatives(x, 2)
        y0, y1, y2 = self.y_terms.monomials.derivatives(y, 2)
        c = self.K @ x0
        w = self.y_terms.weights
        c0 = w * c
        c1 = w[:, None] * (self.K @ x1)                      # [t, k] = d c_t / dx^k
        c2 = w[:, None, None] * np.tensordot(self.K, x2, 1)  # [t, k, l]
        n = self.n
        hess = np.empty((2 * n, 2 * n))
        hess[:n, :n] = np.tensordot(y0, c2, 1)
        hess[:n, n:] = c1.T @ y1
        hess[n:, :n] = hess[:n, n:].T
        hess[n:, n:] = np.tensordot(c0, y2, 1)
        grad = np.concatenate((c1.T @ y0, c0 @ y1))
        # the two diagonal blocks are sums over terms whose order BLAS may
        # pick per entry; averaging with the transpose makes them exactly symmetric
        return Jet(float(c0 @ y0), grad, 0.5 * (hess + hess.T)), c


class CoefficientField:
    """Symmetric coefficient tensor whose entries are polynomials in x."""

    def __init__(self, n: int, m: int, entries):
        canon = {}
        for key, poly in entries.items():
            ms = canonicalize(key, n)
            if len(ms.indices) != m:
                raise DimensionMismatch(f"index {key} does not have order {m}")
            if ms.indices != tuple(key):
                raise ValueError(f"index {tuple(key)} is not canonical (sorted)")
            if ms.indices in canon:
                raise ValueError(f"duplicate canonical index {ms.indices}")
            canon[ms.indices] = poly
        self.n = int(n)
        self.m = int(m)
        self.entries = canon
        self._table = None

    @staticmethod
    def constant(n: int, m: int, values) -> "CoefficientField":
        return CoefficientField(
            n, m, {key: Polynomial.constant(n, v) for key, v in values.items()}
        )

    @property
    def terms(self) -> TermTable:
        """The form a_I(x) y^I as a TermTable (built on first use)."""
        if self._table is None:
            self._table = TermTable(
                list(self.entries.values()), FormTerms(list(self.entries), self.n)
            )
        return self._table

    def tensor_at(self, x) -> SymmetricTensor:
        """Materialise the coefficient tensor at the point x."""
        table = self.terms
        values = table.coefficients(x)
        return SymmetricTensor(
            self.n, self.m, dict(zip(self.entries, values.tolist())), table.y_terms
        )

    def form_checked(self, x, y) -> float:
        """The form value, with the domain guard: at or below its floor is a domain error."""
        value, a = self.terms.value(x, y)
        check_form(value, float(np.max(np.abs(a), initial=0.0)), y, self.m)
        return value

    def is_constant(self) -> bool:
        return all(poly.is_constant() for poly in self.entries.values())


class OneFormField:
    """One-form b_i(x) with polynomial components."""

    def __init__(self, n: int, components):
        components = tuple(components)
        if len(components) != n:
            raise DimensionMismatch(f"{len(components)} components for dimension {n}")
        for poly in components:
            if poly.n != n:
                raise DimensionMismatch("component polynomial has wrong arity")
        self.n = int(n)
        self.components = components
        self._table = None

    @staticmethod
    def constant(n: int, values) -> "OneFormField":
        return OneFormField(n, [Polynomial.constant(n, v) for v in values])

    @property
    def terms(self) -> TermTable:
        """beta = b_i(x) y^i as a TermTable over the order-1 indices (built on first use)."""
        if self._table is None:
            self._table = TermTable(
                self.components, FormTerms([(i,) for i in range(1, self.n + 1)], self.n)
            )
        return self._table

    def values_at(self, x) -> np.ndarray:
        return self.terms.coefficients(x)

    def beta(self, x, y) -> float:
        """The scalar b_i(x) y^i."""
        return self.terms.value(x, y)[0]

    def beta_checked(self, x, y) -> float:
        """beta with the degeneracy guard: near-zero values are a domain error."""
        value, b = self.terms.value(x, y)
        check_beta(value, b, y)
        return value

    def is_constant(self) -> bool:
        return all(poly.is_constant() for poly in self.components)
