"""Position-dependent coefficients and the package's one derivative engine.

Restricting the x-dependence to polynomials keeps every x-derivative analytic,
so closed forms are adjudicated against an oracle with no extra noise from the
coefficient side.

Both the form A = a_I(x) y^I and the one-form beta = b_i(x) y^i are read as
terms  w_t c_t(x) y^e_t : c_t is an entry's polynomial, w_t its index
multiplicity (1 for the one-form) and e_t the y-exponent row of its index
multiset.  A TermTable multiplies them out into monomials of v = (x, y) and
holds one matrix from those monomials to the value, the gradient and the
Hessian over all 2n coordinates and the coefficients c_t(x): a pass is one
power table of v, one gather-product, one matmul and one gather, which makes
the Hessian symmetric by construction.  TermTable.block is that pass as a raw
block with no guard, and TermTable.refusals its one domain guard, refusing
through errors.raise_first: the overflow of the pass, then the floors of A
and beta.  The guard holds its own one-point fast form in Python floats, and
its two callers, calculus.field_jets (which the sampler takes) and the RK4
stage (spray), call it as it is.  CoefficientField.tensor_at reads no pass:
it evaluates each entry's Polynomial.  A pass takes the packed point v = (x, y): callers
pack x and y once (`pack` checks both lengths), the geodesic integrator
hands over its state.  The pair (A, beta) is one table with a group axis
(A, beta), the form alone its one-group case, each built once per field or
pair, on first use.

Multiplied out, each term is rounded once before the sum; this differs from
coefficients times monomials where a coefficient nearly vanishes, by about eps
times the sum's condition number.  Over 3600 accepted samples of the six
fixtures: within 1.2e-15 of the largest entry in gradients and Hessians, and
1.5e-11 relative in a value of A whose coefficient 1 + x^1 is 2.7e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NonFiniteResult, raise_first
from .symtensor import SymmetricTensor, canonicalize, index_multiplicity, key_exponents

# A form value at or below this multiple of ||y||^m * max|a_I(x)| is outside
# the smooth domain of F = A^(1/m).
FORM_FLOOR = 1e-12
# |beta| at or below this multiple of ||y|| * max|b_i| counts as a vanishing one-form.
BETA_FLOOR = 1e-12
FLOOR_MESSAGES = ("form value {:.3e} at or below floor {:.3e}",
                  "one-form value {:.3e} below degeneracy floor {:.3e}")


def all_finite(a) -> bool:
    """Whether every entry of a is finite: one dot product decides unless a
    square overflows, np.isfinite then."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


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


def pack(x, y, n: int) -> np.ndarray:
    """The packed point v = (x, y) (..., 2n) of a pass, x and y broadcast, after
    the dimension check of both."""
    for v, what in ((x, "point"), (y, "vector")):
        if np.shape(v)[-1] != n:
            raise DimensionMismatch(f"{what} has length {np.shape(v)[-1]}, expected {n}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    return np.concatenate((x, y), axis=-1)


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
    hess (..., 2n, 2n) for a stack of points, one point without it.  Every
    jet is read off one array (Jet.of) and keeps it as `block`; jets are not
    mutated.
    """

    val: float
    grad: np.ndarray   # (..., 2n)
    hess: np.ndarray   # (..., 2n, 2n), exactly symmetric
    block: np.ndarray  # (..., 1 + 2n + 4n^2 + ...): the three above lead it, as views

    @staticmethod
    def of(block, n2: int) -> "Jet":
        """The jet laid out at the head of block (..., 1 + n2 + n2^2 + any): value,
        gradient, Hessian row by row."""
        hess = block[..., 1 + n2 : 1 + n2 * (n2 + 1)].reshape(block.shape[:-1] + (n2, n2))
        return Jet(block[..., 0][()], block[..., 1 : 1 + n2], hess, block)

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
        return Jet.of(self.block[..., g, :], self.grad.shape[-1])


class TermTable:
    """Sums of terms w_t c_t(x) y^e_t, one per group (the polynomials c_t, index
    keys and name of one field), multiplied out into monomials v^E of v = (x, y).

    One matrix maps the monomials to the output rows: per group the value, the
    2n-gradient and the upper triangle of the 2n x 2n Hessian, then c_t(x)
    per term.  Each entry is a falling factorial times w_t K[t, a], from the
    one monomial K[t, a] x^a of c_t that reaches it.  Every pass takes the
    packed point v = (x, y) (see pack), which may carry a leading batch axis.
    """

    def __init__(self, groups, n: int):
        self.n, self.names = n, [name for _, _, name in groups]
        n2, self.head = 2 * n, 1 + 2 * n * (2 * n + 1)  # c_t(x) follow the jet from head on
        upper = [(i, j) for i in range(n2) for j in range(i, n2)]
        derivatives = [()] + [(i,) for i in range(n2)] + upper
        size = len(derivatives)
        cells, terms, t = {}, [], len(groups) * size   # (row, exponents of v) -> entry
        for g, (polys, keys, _) in enumerate(groups):
            terms.append(list(range(t, t + len(polys))))
            for poly, key in zip(polys, keys):
                for x_exps, k in poly.monomials:
                    cells[t, x_exps + (0,) * n] = k
                    for r, d in enumerate(derivatives):
                        e, factor = list(x_exps + key_exponents(key, n)), index_multiplicity(key)
                        for i in d:
                            factor, e[i] = factor * e[i], e[i] - 1
                        if factor:
                            cells[g * size + r, tuple(e)] = factor * k
                t += 1
        # per group its value, gradient, Hessian and coefficients: -1 reads a zero
        pad = [ts + [-1] * (max(map(len, terms)) - len(ts)) for ts in terms]
        jet = list(range(1 + n2)) + [
            1 + n2 + upper.index((min(i, j), max(i, j))) for i in range(n2) for j in range(n2)]
        layout = [[g * size + r for r in jet] + pad[g] for g in range(len(groups))]
        # the matrix from the monomials, in order of first use, to the rows that
        # have a cell (one more output for the zeros), and the gather that lays them out
        rows = sorted({r for r, _ in cells})
        position = {r: p for p, r in enumerate(rows)}
        column = {e: j for j, e in enumerate(dict.fromkeys(e for _, e in cells))}
        self._matrix = np.zeros((len(column), len(rows) + 1))
        for (r, e), entry in cells.items():
            self._matrix[column[e], position[r]] = entry
        self._gather = np.array([[position.get(r, len(rows)) for r in row] for row in layout])
        exps = np.array(list(column), dtype=int).reshape(-1, n2)
        top = int(exps.max(initial=0)) + 1
        self._index, self._powers = np.arange(n2) * top + exps, np.arange(top)

    def block(self, v) -> np.ndarray:
        """The pass at the packed points v = (x, y) (..., 2n) as its raw block
        (..., groups, 1 + 2n + 4n^2 + terms): per group the value, the gradient,
        the Hessian row by row, then c_t(x), 0 past the group's own terms.  One
        power table, one gather-product, one matmul and one gather, with no guard:
        callers ignore floating-point errors and test the block (see refusals)."""
        table = v[..., None] ** self._powers
        monomials = table.reshape(table.shape[:-2] + (table.shape[-2] * table.shape[-1],))
        return (monomials[..., self._index].prod(axis=-1) @ self._matrix)[..., self._gather]

    def refusals(self, out, v, m: int) -> None:
        """The domain guard of the pass out = block(v) of a form of order m.
        raise_first refuses, in this order, NonFiniteResult where the pass
        overflows, naming its first group that does, then DomainError at the
        form floor, then at the one-form floor.  First its fast form accepts
        one point with a finite pass above both floors in Python floats
        (1e-300 guarding both scales).  Callers ignore floating-point errors:
        a floor past the largest float is inf."""
        n, head = self.n, self.head
        finite = all_finite(out)
        if finite and v.ndim == 1:
            size = math.sqrt(sum([c * c for c in v[n:].tolist()]))
            (form, *beta), c = out[:, 0].tolist(), out[:, head:].tolist()
            try:
                if form > FORM_FLOOR * size ** m * max(max(map(abs, c[0])), 1e-300) and (
                        not beta or abs(beta[0]) > BETA_FLOOR * size * max(max(map(abs, c[1])), 1e-300)):
                    return
            except OverflowError:
                pass
        if not finite:
            overflow = ~np.isfinite(out).all(axis=-1)
            points = np.reshape(v, (-1, 2 * n)).tolist()
            x, y = [p[:n] for p in points], [p[n:] for p in points]
            for g, name in enumerate(self.names):
                raise_first(overflow[..., g], NonFiniteResult,
                            f"overflow in the {name} value or derivatives at x={{}}, y={{}}", x, y)
        values, scale = out[..., 0], np.abs(out[..., head:]).max(axis=-1, initial=0.0)
        size = norm(v[..., n:])
        floor = FORM_FLOOR * size ** m * np.maximum(scale[..., 0], 1e-300)
        raise_first(values[..., 0] <= floor, DomainError, FLOOR_MESSAGES[0], values[..., 0], floor)
        if out.shape[-2] > 1:
            floor = BETA_FLOOR * size * scale[..., 1]
            raise_first(np.abs(values[..., 1]) <= floor, DomainError, FLOOR_MESSAGES[1],
                        values[..., 1], floor)


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
            if poly.n != n:
                raise DimensionMismatch(f"entry {ms.indices} polynomial has wrong arity")
            canon[ms.indices] = poly
        self.n = int(n)
        self.m = int(m)
        self.entries = canon
        self.term_group = (list(canon.values()), list(canon), "form")
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
        """Materialise the coefficient tensor at the point x: each entry's own
        Polynomial in Python floats, with no derivative pass.  NonFiniteResult
        for a coefficient that is not finite."""
        x = np.asarray(x, dtype=float).tolist()
        values = {key: poly(x) for key, poly in self.entries.items()}
        for key, value in values.items():
            if not math.isfinite(value):
                raise NonFiniteResult(f"coefficient {key} is {value} at x={x}")
        return SymmetricTensor(self.n, self.m, values)

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
        self.term_group = (list(components), [(i,) for i in range(1, self.n + 1)], "one-form")

    @staticmethod
    def constant(n: int, values) -> "OneFormField":
        return OneFormField(n, [Polynomial.constant(n, v) for v in values])

    def is_constant(self) -> bool:
        return all(poly.is_constant() for poly in self.components)
