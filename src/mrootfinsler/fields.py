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
where beta nearly cancels.  The pair (A, beta) is one table: one x-monomial
block, one y-monomial block and one product, with a group axis (A, beta);
the form alone is its one-group case.  Tables come from exponent decrement
and are built once per field or pair, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, raise_first
from .symtensor import FormTerms, MonomialTable, SymmetricTensor, canonicalize

# A form value at or below this multiple of ||y||^m * max|a_I(x)| is outside
# the smooth domain of F = A^(1/m).
FORM_FLOOR = 1e-12
# |beta| below this multiple of ||y|| * max|b_i| counts as a vanishing one-form.
BETA_FLOOR = 1e-12


def check_form(value, max_abs, y_norm, m: int) -> None:
    """Raise DomainError unless every form value clears its scale-aware floor."""
    floor = FORM_FLOOR * y_norm ** m * np.maximum(max_abs, 1e-300)
    raise_first(
        value <= floor, DomainError, "form value {:.3e} at or below floor {:.3e}",
        value, floor,
    )


def check_beta(value, max_abs, y_norm) -> None:
    """Raise DomainError where beta = b_i y^i is too close to zero."""
    floor = BETA_FLOOR * y_norm * max_abs
    raise_first(
        np.abs(value) <= floor, DomainError,
        "one-form value {:.3e} below degeneracy floor {:.3e}", value, floor,
    )


def outer(u, v) -> np.ndarray:
    """[..., i, j] = u_i v_j."""
    return u[..., :, None] * v[..., None, :]


def matvec(a, v) -> np.ndarray:
    """[..., i] = a_ij v_j."""
    return (a @ v[..., None])[..., 0]


def vecmat(v, a) -> np.ndarray:
    """[..., j] = v_i a_ij."""
    return (v[..., None, :] @ a)[..., 0, :]


def dot(u, v):
    """u_i v_i per sample."""
    return (u * v).sum(axis=-1)


def norm(v):
    """The Euclidean length per sample."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(dot(v, v))


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
    """A scalar with its gradient and Hessian over (x, y), the n x-coordinates first.

    Every field takes a leading batch axis: val (...), grad (..., 2n) and
    hess (..., 2n, 2n) for a stack of points, one point without it.
    """

    val: float
    grad: np.ndarray   # (..., 2n)
    hess: np.ndarray   # (..., 2n, 2n), exactly symmetric

    @property
    def n(self) -> int:
        return self.grad.shape[-1] // 2

    @property
    def grad_x(self) -> np.ndarray:
        return self.grad[..., : self.n]

    @property
    def grad_y(self) -> np.ndarray:
        return self.grad[..., self.n :]

    @property
    def hess_xy(self) -> np.ndarray:
        """[..., k, l] = d2 / dx^k dy^l."""
        return self.hess[..., : self.n, self.n :]

    @property
    def hess_yy(self) -> np.ndarray:
        return self.hess[..., self.n :, self.n :]

    def group(self, g: int) -> "Jet":
        """Group g of a pass with a group axis: A is 0 and beta 1 in the pair (A, beta)."""
        return Jet(self.val[..., g][()], self.grad[..., g, :], self.hess[..., g, :, :])


class TermTable:
    """Sums of terms w_t c_t(x) y^e_t, one per group: a group holds the
    polynomials c_t and index keys of one field.

    Points x and vectors y may carry a leading batch axis (..., n).
    """

    def __init__(self, groups, n: int):
        polys = [poly for group, _ in groups for poly in group]
        x_exps = sorted({exps for poly in polys for exps, _ in poly.monomials})
        column = {exps: j for j, exps in enumerate(x_exps)}
        self.K = np.zeros((len(polys), len(x_exps)))
        for t, poly in enumerate(polys):
            for exps, coeff in poly.monomials:
                self.K[t, column[exps]] = coeff
        sizes = [len(group) for group, _ in groups]
        self._group_slices = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
        group_of = np.repeat(np.arange(len(groups)), sizes)
        # [g, t, j]: K once per group, the rows of the other groups zero
        self._grouped = self.K * (group_of[:, None] == np.arange(len(groups))[:, None, None])
        self.n = n
        self.x = MonomialTable(x_exps, n)
        self.y_terms = FormTerms([key for _, keys in groups for key in keys], n)
        # Where the pass below finds the value (entry 0), each entry of the
        # 2n-gradient and of the 2n x 2n Hessian in the flattened product
        # matrix M, read in one gather: row a and column b of M run over
        # value, first and second derivatives (1 + n + n^2) of the
        # x-coefficients and of the y-monomials respectively.
        d = 1 + n + n * n
        first = 1 + np.arange(n)
        second = 1 + n + n * np.arange(n)[:, None] + np.arange(n)
        self._gather = np.concatenate(([0], first * d, first, np.block([
            [second * d, first[:, None] * d + first],
            [first * d + first[:, None], second],
        ]).ravel()))

    def _check(self, v, what: str):
        if np.shape(v)[-1] != self.n:
            raise DimensionMismatch(
                f"{what} has length {np.shape(v)[-1]}, expected {self.n}"
            )

    def coefficients(self, x) -> np.ndarray:
        """c_t(x), one per term: (..., terms)."""
        self._check(x, "point")
        return self.x.derivatives(x, 0)[..., 0] @ self.K.T

    def value(self, x, y):
        """Each group's sum, and max |c_t(x)| over its terms: two arrays (..., groups)."""
        c = self.coefficients(x)
        self._check(y, "vector")
        terms = c * self.y_terms.monomials.derivatives(y, 0)[..., 0]
        slices = self._group_slices
        return (
            np.stack([terms[..., s].sum(axis=-1) for s in slices], axis=-1),
            np.stack([np.abs(c[..., s]).max(axis=-1, initial=0.0) for s in slices], axis=-1),
        )

    def jet(self, x, y):
        """Each group's sum as a Jet with a group axis, and its coefficients c_t(x) per group.

        M_g = C_g^T Y, with C_g[t, a] the a-th derivative of c_t (zero off
        group g) and Y[t, b] the b-th derivative of w_t y^e_t, holds every
        product the value, the gradient and the Hessian of group g need.
        """
        self._check(x, "point")
        self._check(y, "vector")
        C = self._grouped @ self.x.derivatives(x, 2)[..., None, :, :]
        M = C.swapaxes(-1, -2) @ self.y_terms.monomials.derivatives(y, 2)[..., None, :, :]
        flat = M.reshape(M.shape[:-2] + (-1,))[..., self._gather]
        n2 = 2 * self.n
        hess = flat[..., 1 + n2 :].reshape(flat.shape[:-1] + (n2, n2))
        # the two diagonal blocks are sums over terms whose order BLAS may
        # pick per entry; averaging with the transpose makes them exactly symmetric
        return Jet(
            flat[..., 0], flat[..., 1 : 1 + n2], 0.5 * (hess + hess.swapaxes(-1, -2)),
        ), C[..., 0]


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
        self.term_group = (list(canon.values()), list(canon))
        self._tables = {}

    @staticmethod
    def constant(n: int, m: int, values) -> "CoefficientField":
        return CoefficientField(
            n, m, {key: Polynomial.constant(n, v) for key, v in values.items()}
        )

    @property
    def terms(self) -> TermTable:
        """The form a_I(x) y^I as a one-group TermTable (built on first use)."""
        return self.terms_with(None)

    def terms_with(self, oneform) -> TermTable:
        """The form, or the pair (A, beta) with a one-form, as one TermTable (built once)."""
        if oneform not in self._tables:
            groups = [self.term_group] if oneform is None else [self.term_group, oneform.term_group]
            self._tables[oneform] = TermTable(groups, self.n)
        return self._tables[oneform]

    def tensor_at(self, x) -> SymmetricTensor:
        """Materialise the coefficient tensor at the point x."""
        table = self.terms
        values = table.coefficients(x)
        return SymmetricTensor(
            self.n, self.m, dict(zip(self.entries, values.tolist())), table.y_terms
        )

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
        self.term_group = (list(components), [(i,) for i in range(1, self.n + 1)])
        self._table = None

    @staticmethod
    def constant(n: int, values) -> "OneFormField":
        return OneFormField(n, [Polynomial.constant(n, v) for v in values])

    @property
    def terms(self) -> TermTable:
        """beta = b_i(x) y^i as a one-group TermTable (built on first use)."""
        if self._table is None:
            self._table = TermTable([self.term_group], self.n)
        return self._table

    def values_at(self, x) -> np.ndarray:
        return self.terms.coefficients(x)

    def is_constant(self) -> bool:
        return all(poly.is_constant() for poly in self.components)
