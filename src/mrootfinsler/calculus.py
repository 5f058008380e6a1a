"""Differentiation oracle: one derivative pass for every energy A^p beta^q.

Every scalar the package differentiates is A^p beta^q, with A = a_I(x) y^I
the form of the coefficient field and beta = b_i(x) y^i the one-form:

  F = A^(1/m),  F^2 = A^(2/m),  Fbar = A^(2/m) / beta,  Fbar^2 = A^(4/m) / beta^2.

The fields layer evaluates A and beta with their exact gradients and Hessians
over all 2n coordinates (x first, then y) in one pass at the packed point
v = (x, y), on a group axis (A, beta), laid out in one block.  One chain rule
composes one group and two alike: per sample, the value of A^p beta^q and its
first and second derivatives in (A, beta) are scalar coefficients (Python
floats at one point), and one product of them with the block gives the
gradient and Hessian.  The pass and the chain rule are cores on raw blocks
(TermTable.block, chain) with no errstate or guard of their own.  A pass has
one domain guard, with its own one-point fast form (TermTable.refusals):
field_jets runs the pass and that guard, the sampler's test when bound to the
field pair, and the RK4 stage (spray) runs the cores and that guard on its own
block; neither picks a form of the guard.  A Jet (Jet.of) is a view of a
block; power and ScalarFunction.compose are the guarded chain rule over it.
Each public evaluator is one stack evaluation (errors.in_sample_order).  The
value, the y-gradient and y-Hessian, the x-gradient and the mixed x-y block of
any energy, and the value a ScalarFunction returns when called, are therefore
slices of a single pass, exact to rounding.  Points may come stacked (..., n).
Richardson-extrapolated central differences of the value over the packed
point serve only as an independent cross-check of the whole gradient and
Hessian (fd_check).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteResult, in_sample_order, raise_first
from .fields import CoefficientField, Jet, OneFormField, all_finite, pack

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# the derivative pass
# ---------------------------------------------------------------------------

# `v ** e` takes these shortcuts for a scalar exponent e; the powers of all
# groups at once take them too, and so match a power per group bit for bit
_SHORTCUTS = {-1.0: np.reciprocal, 0.5: np.sqrt, 2.0: np.square}


@functools.lru_cache(maxsize=64)
def _power_table(exponents: tuple):
    """Per group e: the exponents (e, e-1, e-2), their factors (1, e, e(e-1)), the shortcuts."""
    e = np.array(exponents, dtype=float)
    table = np.array([e, e - 1.0, e - 2.0])
    shortcuts = [(r, g, _SHORTCUTS[t]) for (r, g), t in np.ndenumerate(table) if t in _SHORTCUTS]
    return table, np.array([np.ones_like(e), e, e * (e - 1.0)]), shortcuts


def _power(v, exponents: tuple) -> np.ndarray:
    """v^e and its first and second derivative in v, with group g of v (..., G)
    raised to exponents[g]: (..., 3, G).  Group by group, the guards refuse
    an undefined base, then a power that overflows; both leave an entry
    that is not finite, so the guards run only then.  Callers ignore
    floating-point errors."""
    table, factor, shortcuts = _power_table(tuple(exponents))
    v = np.asarray(v, dtype=float)
    out = v[..., None, :] ** table
    for r, g, op in shortcuts:
        out[..., r, g] = op(v[..., g])
    out *= factor
    if not all_finite(out):
        undefined = (v == 0.0) | ((v < 0.0) & (table[0] % 1.0 != 0.0))
        finite = np.isfinite(out).all(axis=-2)
        for g, p in enumerate(exponents):
            base, what = v[..., g], f"power {p} "
            raise_first(undefined[..., g], NonFiniteResult, what + "undefined at base {}", base)
            raise_first(~finite[..., g], NonFiniteResult, what + "of {} overflows", base)
    return out


def _coefficients(values, exponents):
    """f = prod_g v_g^e_g of the k group values v (..., k), and C (..., 1 + k, k):
    c1_g = df/dv_g in row 0, c2_gh = d2f/dv_g dv_h below.  One point with
    positive values takes Python floats; any other point, or powers that
    overflow a float, go through _power and its guards.  Callers ignore
    floating-point errors."""
    if values.ndim == 1 and min(v := values.tolist()) > 0.0:
        try:
            (P0, D0, E0), *pair = [(b ** e, e * b ** (e - 1.0), e * (e - 1.0) * b ** (e - 2.0))
                                   for b, e in zip(v, exponents)]
        except OverflowError:
            pass
        else:
            if not pair:
                return P0, np.array([D0, E0]).reshape(2, 1)
            (P1, D1, E1), = pair
            return P0 * P1, np.array(
                [D0 * P1, P0 * D1, E0 * P1, D0 * D1, D0 * D1, P0 * E1]).reshape(3, 2)
    out = _power(values, exponents)
    if len(exponents) == 1:
        return out[..., 0, 0], out[..., 1:, :]
    # f and C as the products of two entries of out, (P0, P1, D0, D1, E0, E1) flat
    out = out.reshape(out.shape[:-2] + (6,))
    fc = out[..., [0, 2, 0, 4, 2, 2, 0]] * out[..., [1, 1, 3, 1, 3, 3, 5]]
    return fc[..., 0], fc[..., 1:].reshape(fc.shape[:-1] + (3, 2))


def chain(block, exponents, n2: int) -> np.ndarray:
    """The chain rule of power as a core on arrays: block (..., k, 1 + n2 + n2^2)
    is the head of a pass, the group values leading it (TermTable.block), and
    the result is the composed jet's block (..., 1 + n2 + n2^2) (Jet.of).  No
    guard on the result and no errstate of its own: callers ignore
    floating-point errors and test what it returns."""
    f, C = _coefficients(block[..., 0], exponents)
    R = C @ block
    out = R[..., 0, :]
    hess = out[..., 1 + n2 :].reshape(out.shape[:-1] + (n2, n2))
    hess += block[..., 1 : 1 + n2].swapaxes(-1, -2) @ R[..., 1:, 1 : 1 + n2]
    np.add(hess, hess.swapaxes(-1, -2), out=hess)  # ufuncs copy an overlapping input
    hess *= 0.5
    out[..., 0] = f
    return out


@in_sample_order
def power(jets: Jet, exponents) -> Jet:
    """A^p for exponents (p,), A^p beta^q for (p, q), with gradient and Hessian,
    from a pass of A or of (A, beta) (Jet.of, one block): with V the group
    values, grad = c1 dV and Hess = c1 H_V + dV^T c2 dV.  For one group and for
    two alike, one product of C with the pass's block gives c1 dV, c1 H_V and
    c2 dV, and the Hessian is symmetrised as (M + M^T) / 2, so it is exactly
    symmetric (chain).  Overflowing products are left as they come:
    ScalarFunction.compose rejects them.
    """
    n2 = jets.grad.shape[-1]
    return Jet.of(chain(jets.block[..., : len(exponents), : 1 + n2 * (n2 + 1)], exponents, n2), n2)


@in_sample_order
def field_jets(field: CoefficientField, oneform: Optional[OneFormField], x, y) -> Jet:
    """The guarded pass of A, or of (A, beta) on a group axis, at stacks x, y
    (..., n), packed once, here, and its domain guard (TermTable.refusals).
    Bound to the pair, it is the sampler's test, so a draw is refused exactly
    where every later pass would refuse it."""
    table, v = field.terms_with(oneform), pack(x, y, field.n)
    out = table.block(v)
    table.refusals(out, v, field.m)
    return Jet.of(out, 2 * field.n)


@dataclass(frozen=True)
class ScalarFunction:
    """f = A^p beta^q on the domain where A and beta clear their floors."""

    name: str
    field: CoefficientField
    p: float
    oneform: Optional[OneFormField] = None
    q: float = 0.0

    @property
    def exponents(self) -> tuple:
        return (self.p,) if self.oneform is None else (self.p, self.q)

    @in_sample_order
    def compose(self, jets: Jet) -> Jet:
        """f with its derivatives, from a pass of A or of (A, beta) (per sample on stacks)."""
        jet = power(jets, self.exponents)
        # one finiteness test on the whole block; the per-sample guards run only when it fails
        if not all_finite(jet.block):
            raise_first(
                ~np.isfinite(jet.val), NonFiniteResult, f"{self.name} evaluated to {{}}", jet.val
            )
            raise_first(
                ~(np.isfinite(jet.grad).all(axis=-1) & np.isfinite(jet.hess).all(axis=(-2, -1))),
                NonFiniteResult, f"derivatives of {self.name} are not finite",
            )
        return jet

    def __call__(self, x, y) -> float:
        """f at (x, y), read off the derivative pass with its guards."""
        return derivatives(self, x, y).val


def mth_root_norm(field: CoefficientField, m: int) -> ScalarFunction:
    """F = (form)^(1/m) on the form > 0 domain."""
    return ScalarFunction("F", field, 1.0 / m)


def base_energy(field: CoefficientField, m: int) -> ScalarFunction:
    """F^2, the quantity whose half y-Hessian is the fundamental tensor."""
    return ScalarFunction("F^2", field, 2.0 / m)


def kropina_norm(field: CoefficientField, oneform: OneFormField, m: int) -> ScalarFunction:
    """Fbar = F^2 / beta."""
    return ScalarFunction("Fbar", field, 2.0 / m, oneform, -1.0)


def kropina_energy(field: CoefficientField, oneform: OneFormField, m: int) -> ScalarFunction:
    """Fbar^2 = F^4 / beta^2."""
    return ScalarFunction("Fbar^2", field, 4.0 / m, oneform, -2.0)


@in_sample_order
def derivatives(f: ScalarFunction, x, y) -> Jet:
    """One pass: f with its full (x, y) gradient and Hessian, per point of a stack."""
    return f.compose(field_jets(f.field, f.oneform, x, y))


def value_grad_hess_y(f: ScalarFunction, x, y):
    """f, df/dy, d2f/dydy at (x, y)."""
    jet = derivatives(f, x, y)
    return jet.val, jet.grad_y, jet.hess_yy


def hess_y(f: ScalarFunction, x, y) -> np.ndarray:
    return derivatives(f, x, y).hess_yy


def grad_x(f: ScalarFunction, x, y) -> np.ndarray:
    return derivatives(f, x, y).grad_x


def mixed_xy(f: ScalarFunction, x, y) -> np.ndarray:
    """Matrix [k, l] = d2 f / dx^k dy^l."""
    return derivatives(f, x, y).hess_xy


# ---------------------------------------------------------------------------
# Richardson central differences (cross-check only)
# ---------------------------------------------------------------------------

def _richardson(samples):
    """Collapse a ladder of h, h/2, ... central-difference estimates."""
    level = list(samples)
    power = 4.0
    while len(level) > 1:
        level = [
            (power * level[i + 1] - level[i]) / (power - 1.0)
            for i in range(len(level) - 1)
        ]
        power *= 4.0
    return level[0]


def _moved(v, *moves) -> np.ndarray:
    """A copy of v with each (index, step) of moves added in turn."""
    point = v.copy()
    for i, step in moves:
        point[i] += step
    return point


def _ladder_steps(v, step0: float):
    """Per coordinate, the steps h, h/2, h/4 of its ladder, h scaled by 1 + |v_i|."""
    return [[step0 * (1.0 + abs(vi)) / 2 ** lv for lv in range(3)] for vi in v]


def fd_gradient(fn, v) -> np.ndarray:
    """Central-difference gradient of fn at v; fn maps a stack (k, n) of points to k values.

    Every stencil point of every ladder goes to fn in one call.
    """
    v = np.asarray(v, dtype=float)
    steps = _ladder_steps(v, _EPS ** (1.0 / 3.0))
    f = iter(fn(np.array([
        _moved(v, (i, sign * h)) for i, ladder in enumerate(steps)
        for h in ladder for sign in (1.0, -1.0)
    ])))
    return np.array([
        _richardson([(next(f) - next(f)) / (2 * h) for h in ladder]) for ladder in steps
    ])


def fd_hessian(fn, v) -> np.ndarray:
    """Central-difference Hessian of fn at v; fn maps a stack (k, n) of points to k values.

    Every stencil point of every ladder, and v itself, go to fn in one call.
    """
    # Second differences lose ~eps/h^2 to roundoff, so the step is much wider
    # than the first-order cbrt(eps) choice.
    v = np.asarray(v, dtype=float)
    n = v.size
    steps = _ladder_steps(v, _EPS ** 0.2)
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    points = [v]
    for i, j in entries:
        for hi, hj in zip(steps[i], steps[j]):
            if i == j:
                points += [_moved(v, (i, hi)), _moved(v, (i, -hi))]
            else:
                points += [
                    _moved(v, (i, hi), (j, hj)), _moved(v, (i, hi), (j, -hj)),
                    _moved(v, (i, -hi), (j, hj)), _moved(v, (i, -hi), (j, -hj)),
                ]
    f = iter(fn(np.array(points)))
    f0 = next(f)
    out = np.zeros((n, n))
    for i, j in entries:
        ladder = []
        for hi, hj in zip(steps[i], steps[j]):
            if i == j:
                ladder.append((next(f) - 2.0 * f0 + next(f)) / (hi * hi))
            else:
                ladder.append((next(f) - next(f) - next(f) + next(f)) / (4 * hi * hj))
        out[i, j] = out[j, i] = _richardson(ladder)
    return out


@dataclass
class FdReport:
    """Deviation of the oracle's derivatives from the finite-difference ones."""

    order: int
    max_abs: float
    max_rel: float


def fd_check(f: ScalarFunction, x, y, order: int) -> FdReport:
    """Compare the oracle's derivatives against Richardson central differences
    of v -> f(v[:n], v[n:]) at the packed point v = (x, y).

    order 1 checks the whole (x, y) gradient, order 2 the whole Hessian, the
    x-x, x-y and y-y blocks alike.  Report-only: nothing is asserted here.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    n = f.field.n
    v = pack(x, y, n)
    jet = derivatives(f, v[:n], v[n:])

    def fn(vs):
        return f(vs[..., :n], vs[..., n:])

    if order == 1:
        oracle, fd = jet.grad, fd_gradient(fn, v)
    else:
        oracle, fd = jet.hess, fd_hessian(fn, v)
    diff = np.abs(oracle - fd)
    return FdReport(order, float(diff.max()), float((diff / (1.0 + np.abs(fd))).max()))
