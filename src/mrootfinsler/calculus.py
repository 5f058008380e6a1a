"""Differentiation oracle: one derivative pass for every energy A^p beta^q.

Every scalar the package differentiates is A^p beta^q, with A = a_I(x) y^I
the form of the coefficient field and beta = b_i(x) y^i the one-form:

  F = A^(1/m),  F^2 = A^(2/m),  Fbar = A^(2/m) / beta,  Fbar^2 = A^(4/m) / beta^2.

The fields layer evaluates A and beta with their exact gradients and Hessians
over all 2n coordinates (x first, then y) in one pass, on a group axis (A,
beta); one chain rule composes them, raising both groups in one call with
the exponents (p, q) and joining them by the product rule.  The
value, the y-gradient and y-Hessian, the x-gradient and the mixed x-y block of
any energy are therefore slices of a single pass, exact to rounding.  Points
may come stacked (..., n): the pass, the chain rule and every guard then act
per sample, and a guard raises for the lowest failing sample.
Richardson-extrapolated central differences serve only as an independent
cross-check (fd_check).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteResult, raise_first
from .fields import CoefficientField, Jet, OneFormField, all_finite, check_floors
from .fields import clear_of_floors, outer

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


def _power(v, exponents: tuple, derivatives: bool = True) -> np.ndarray:
    """v^e and its first and second derivative in v, with group g of v (..., G)
    raised to exponents[g]: (..., 3, G), or (..., 1, G) for v^e alone.  Group by
    group, the guards raise for an undefined base, then for a power that
    overflows; both leave an entry that is not finite, so the guards run only
    then.  Callers ignore floating-point errors."""
    table, factor, shortcuts = _power_table(tuple(exponents))
    rows = 3 if derivatives else 1
    v = np.asarray(v, dtype=float)
    out = v[..., None, :] ** table[:rows]
    for r, g, op in shortcuts:
        if r < rows:
            out[..., r, g] = op(v[..., g])
    out *= factor[:rows]
    if not all_finite(out):
        undefined = (v == 0.0) | ((v < 0.0) & (table[0] % 1.0 != 0.0))
        finite = np.isfinite(out).all(axis=-2)
        for g, p in enumerate(exponents):
            base, what = v[..., g], f"power {p} "
            raise_first(undefined[..., g], NonFiniteResult, what + "undefined at base {}", base)
            raise_first(~finite[..., g], NonFiniteResult, what + "of {} overflows", base)
    return out


def power(jets: Jet, exponents) -> Jet:
    """A^p for exponents (p,), A^p beta^q for (p, q), with gradient and Hessian,
    from a pass of A or of (A, beta): one call raises both, the product rule
    joins them.  The Hessian stays exactly symmetric: each rule adds only
    symmetric matrices and symmetrised outer products.  Products that overflow
    are left as they come out: ScalarFunction.compose rejects them.
    """
    k = len(exponents)
    grad = jets.grad[..., :k, :]
    with np.errstate(all="ignore"):
        out = _power(jets.val[..., :k], exponents)
        f, d1, d2 = out[..., 0, :], out[..., 1, :, None], out[..., 2, :, None]
        hess = d1[..., None] * jets.hess[..., :k, :, :] + d2[..., None] * outer(grad, grad)
        grad = d1 * grad
        if k == 1:
            return Jet(f[..., 0][()], grad[..., 0, :], hess[..., 0, :, :])
        cross = outer(grad[..., 0, :], grad[..., 1, :])
        # each group's derivatives times the other group's value, in one product
        grad, hess = f[..., ::-1, None] * grad, f[..., ::-1, None, None] * hess
        return Jet(f[..., 0] * f[..., 1], grad[..., 1, :] + grad[..., 0, :], (
            hess[..., 1, :, :] + hess[..., 0, :, :]) + (cross + cross.swapaxes(-1, -2)))


def field_jets(field: CoefficientField, oneform: Optional[OneFormField], x, y) -> Jet:
    """One pass for A, or for (A, beta) on a group axis, after the floors of
    domain_check (form first), read off the same pass.  x and y may be stacks (..., n)."""
    jets, c = field.terms_with(oneform).jet(x, y)
    # a single point clear of both floors skips the guards' array work
    if not (jets.val.ndim == 1 and clear_of_floors(
            jets.val.tolist(), c.tolist(), np.asarray(y).tolist(), field.m)):
        check_floors(jets.val, np.abs(c).max(axis=-1, initial=0.0), y, field.m)
    return jets


def domain_check(field: CoefficientField, oneform: Optional[OneFormField]) -> Callable:
    """The sampler's admissibility test: the floors field_jets checks, form first, on
    the values and floor scales TermTable.value reads off the same pass.  It
    returns the values (..., groups)."""
    table = field.terms_with(oneform)

    def check(x, y):
        values, scale = table.value(x, y)
        check_floors(values, scale, y, field.m)
        return values

    return check


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

    def compose(self, jets: Jet) -> Jet:
        """f with its derivatives, from a pass of A or of (A, beta) (per sample on stacks)."""
        jet = power(jets, self.exponents)
        # the per-sample guards run only when something is not finite
        if not (all_finite(jet.val) and all_finite(jet.grad) and all_finite(jet.hess)):
            raise_first(
                ~np.isfinite(jet.val), NonFiniteResult, f"{self.name} evaluated to {{}}", jet.val
            )
            raise_first(
                ~(np.isfinite(jet.grad).all(axis=-1) & np.isfinite(jet.hess).all(axis=(-2, -1))),
                NonFiniteResult, f"derivatives of {self.name} are not finite",
            )
        return jet

    def __call__(self, x, y) -> float:
        values = domain_check(self.field, self.oneform)(x, y)
        with np.errstate(all="ignore"):
            value = _power(values, self.exponents, False).prod(axis=(-2, -1))
        raise_first(
            ~np.isfinite(value), NonFiniteResult, f"{self.name} evaluated to {{}}", value
        )
        return value


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


def _ladder_steps(v, step0: float, levels: int):
    """Per coordinate, the steps h, h/2, ... of its ladder, h scaled by 1 + |v_i|."""
    return [[step0 * (1.0 + abs(vi)) / 2 ** lv for lv in range(levels + 1)] for vi in v]


def fd_gradient(fn, v, rel_step=None, levels: int = 2) -> np.ndarray:
    """Central-difference gradient of fn at v; fn maps a stack (k, n) of points to k values.

    Every stencil point of every ladder goes to fn in one call.
    """
    v = np.asarray(v, dtype=float)
    step0 = rel_step if rel_step is not None else _EPS ** (1.0 / 3.0)
    steps = _ladder_steps(v, step0, levels)
    f = iter(fn(np.array([
        _moved(v, (i, sign * h)) for i, ladder in enumerate(steps)
        for h in ladder for sign in (1.0, -1.0)
    ])))
    return np.array([
        _richardson([(next(f) - next(f)) / (2 * h) for h in ladder]) for ladder in steps
    ])


def fd_hessian(fn, v, rel_step=None, levels: int = 2) -> np.ndarray:
    """Central-difference Hessian of fn at v; fn maps a stack (k, n) of points to k values.

    Every stencil point of every ladder, and v itself, go to fn in one call.
    """
    # Second differences lose ~eps/h^2 to roundoff, so the step is much wider
    # than the first-order cbrt(eps) choice.
    v = np.asarray(v, dtype=float)
    step0 = rel_step if rel_step is not None else _EPS ** 0.2
    n = v.size
    steps = _ladder_steps(v, step0, levels)
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
    """Compare the oracle's derivatives against Richardson central differences.

    order 1 checks grad_y and grad_x, order 2 checks hess_y and the mixed
    block.  Report-only: nothing is asserted here.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jet = derivatives(f, x, y)
    diffs = []
    scales = []
    if order == 1:
        fd = fd_gradient(lambda ys: f(x, ys), y)
        diffs.append(np.abs(jet.grad_y - fd)); scales.append(np.abs(fd))
        fdx = fd_gradient(lambda xs: f(xs, y), x)
        diffs.append(np.abs(jet.grad_x - fdx)); scales.append(np.abs(fdx))
    else:
        fd = fd_hessian(lambda ys: f(x, ys), y)
        diffs.append(np.abs(jet.hess_yy - fd).ravel()); scales.append(np.abs(fd).ravel())
        fdm = _fd_mixed(f, x, y)
        diffs.append(np.abs(jet.hess_xy - fdm).ravel()); scales.append(np.abs(fdm).ravel())
    diff = np.concatenate(diffs)
    scale = np.concatenate(scales)
    max_abs = float(diff.max()) if diff.size else 0.0
    rel = diff / (1.0 + scale)
    return FdReport(order, max_abs, float(rel.max()) if rel.size else 0.0)


def _fd_mixed(f: ScalarFunction, x, y, rel_step=None, levels: int = 2) -> np.ndarray:
    """Central-difference mixed block [k, l] = d2 f / dx^k dy^l, all stencil points in one call."""
    step0 = rel_step if rel_step is not None else _EPS ** 0.2
    x_steps = _ladder_steps(x, step0, levels)
    y_steps = _ladder_steps(y, step0, levels)
    entries = [(k, l) for k in range(len(x)) for l in range(len(y))]
    xs, ys = [], []
    for k, l in entries:
        for hk, hl in zip(x_steps[k], y_steps[l]):
            for sk, sl in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                xs.append(_moved(x, (k, sk * hk)))
                ys.append(_moved(y, (l, sl * hl)))
    values = iter(f(np.array(xs), np.array(ys)))
    out = np.zeros((len(x), len(y)))
    for k, l in entries:
        out[k, l] = _richardson([
            (next(values) - next(values) - next(values) + next(values)) / (4 * hk * hl)
            for hk, hl in zip(x_steps[k], y_steps[l])
        ])
    return out
