"""Differentiation oracle: one derivative pass for every energy A^p beta^q.

Every scalar the package differentiates is A^p beta^q, with A = a_I(x) y^I
the form of the coefficient field and beta = b_i(x) y^i the one-form:

  F = A^(1/m),  F^2 = A^(2/m),  Fbar = A^(2/m) / beta,  Fbar^2 = A^(4/m) / beta^2.

The fields layer evaluates A and beta with their exact gradients and Hessians
over all 2n coordinates (x first, then y); one chain rule composes them.  The
value, the y-gradient and y-Hessian, the x-gradient and the mixed x-y block of
any energy are therefore slices of a single pass, exact to rounding.
Richardson-extrapolated central differences serve only as an independent
cross-check (fd_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteResult
from .fields import CoefficientField, Jet, OneFormField, check_beta, check_form

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# the derivative pass
# ---------------------------------------------------------------------------

def _power(v: float, p: float):
    """v^p with its first and second derivative in v."""
    if p == 0.0:
        return 1.0, 0.0, 0.0
    if v == 0.0 or (v < 0.0 and not float(p).is_integer()):
        raise NonFiniteResult(f"power {p} undefined at base {v}")
    try:
        return v ** p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0)
    except OverflowError as exc:
        raise NonFiniteResult(f"power {p} of {v} overflows") from exc


def _power_jet(jet: Jet, p: float) -> Jet:
    f, d1, d2 = _power(jet.val, p)
    return Jet(f, d1 * jet.grad, d1 * jet.hess + d2 * np.outer(jet.grad, jet.grad))


def power(A: Jet, beta: Optional[Jet], p: float, q: float) -> Jet:
    """A^p beta^q with its gradient and Hessian (beta is unused when q = 0).

    The Hessian stays exactly symmetric: each rule adds only symmetric
    matrices and symmetrised outer products.
    """
    a = _power_jet(A, p)
    if q == 0.0:
        return a
    b = _power_jet(beta, q)
    cross = np.outer(a.grad, b.grad)
    return Jet(
        a.val * b.val,
        a.val * b.grad + b.val * a.grad,
        (a.val * b.hess + b.val * a.hess) + (cross + cross.T),
    )


def field_jets(field: CoefficientField, oneform: Optional[OneFormField], x, y):
    """One pass for A and beta (None without a one-form), after the domain guards."""
    A, a = field.terms.jet(x, y)
    check_form(A.val, float(np.max(np.abs(a), initial=0.0)), y, field.m)
    if oneform is None:
        return A, None
    beta, b = oneform.terms.jet(x, y)
    check_beta(beta.val, b, y)
    return A, beta


def domain_check(field: CoefficientField, oneform: Optional[OneFormField]) -> Callable:
    """The sampler's admissibility test: the form floor, then the one-form floor."""

    def check(x, y):
        field.form_checked(x, y)
        if oneform is not None:
            oneform.beta_checked(x, y)

    return check


@dataclass(frozen=True)
class ScalarFunction:
    """f = A^p beta^q on the domain where A and beta clear their floors."""

    name: str
    field: CoefficientField
    p: float
    oneform: Optional[OneFormField] = None
    q: float = 0.0

    def compose(self, A: Jet, beta: Optional[Jet]) -> Jet:
        """f with its derivatives, from a pass of A and beta at one point."""
        jet = power(A, beta, self.p, self.q)
        if not math.isfinite(jet.val):
            raise NonFiniteResult(f"{self.name} evaluated to {jet.val}")
        if not (np.all(np.isfinite(jet.grad)) and np.all(np.isfinite(jet.hess))):
            raise NonFiniteResult(f"derivatives of {self.name} are not finite")
        return jet

    def __call__(self, x, y) -> float:
        value = _power(self.field.form_checked(x, y), self.p)[0]
        if self.oneform is not None:
            value *= _power(self.oneform.beta_checked(x, y), self.q)[0]
        if not math.isfinite(value):
            raise NonFiniteResult(f"{self.name} evaluated to {value}")
        return value


def form_function(field: CoefficientField) -> ScalarFunction:
    return ScalarFunction("form", field, 1.0)


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
    """One pass: f with its full (x, y) gradient and Hessian."""
    return f.compose(*field_jets(f.field, f.oneform, x, y))


def value_grad_hess_y(f: ScalarFunction, x, y):
    """f, df/dy, d2f/dydy at (x, y)."""
    jet = derivatives(f, x, y)
    return jet.val, jet.grad_y, jet.hess_yy


def grad_y(f: ScalarFunction, x, y) -> np.ndarray:
    return derivatives(f, x, y).grad_y


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


def fd_gradient(fn, v, rel_step=None, levels: int = 2) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    step0 = rel_step if rel_step is not None else _EPS ** (1.0 / 3.0)
    out = np.zeros(v.size)
    for i in range(v.size):
        h0 = step0 * (1.0 + abs(v[i]))
        ladder = []
        for lv in range(levels + 1):
            h = h0 / 2 ** lv
            vp = v.copy(); vp[i] += h
            vm = v.copy(); vm[i] -= h
            ladder.append((fn(vp) - fn(vm)) / (2 * h))
        out[i] = _richardson(ladder)
    return out

def fd_hessian(fn, v, rel_step=None, levels: int = 2) -> np.ndarray:
    # Second differences lose ~eps/h^2 to roundoff, so the step is much wider
    # than the first-order cbrt(eps) choice.
    v = np.asarray(v, dtype=float)
    step0 = rel_step if rel_step is not None else _EPS ** 0.2
    n = v.size
    out = np.zeros((n, n))
    f0 = fn(v)
    for i in range(n):
        hi0 = step0 * (1.0 + abs(v[i]))
        ladder = []
        for lv in range(levels + 1):
            h = hi0 / 2 ** lv
            vp = v.copy(); vp[i] += h
            vm = v.copy(); vm[i] -= h
            ladder.append((fn(vp) - 2.0 * f0 + fn(vm)) / (h * h))
        out[i, i] = _richardson(ladder)
        for j in range(i + 1, n):
            hj0 = step0 * (1.0 + abs(v[j]))
            ladder = []
            for lv in range(levels + 1):
                hi = hi0 / 2 ** lv
                hj = hj0 / 2 ** lv
                vpp = v.copy(); vpp[i] += hi; vpp[j] += hj
                vpm = v.copy(); vpm[i] += hi; vpm[j] -= hj
                vmp = v.copy(); vmp[i] -= hi; vmp[j] += hj
                vmm = v.copy(); vmm[i] -= hi; vmm[j] -= hj
                ladder.append((fn(vpp) - fn(vpm) - fn(vmp) + fn(vmm)) / (4 * hi * hj))
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
        fd = fd_gradient(lambda yy: f(x, yy), y)
        diffs.append(np.abs(jet.grad_y - fd)); scales.append(np.abs(fd))
        fdx = fd_gradient(lambda xx: f(xx, y), x)
        diffs.append(np.abs(jet.grad_x - fdx)); scales.append(np.abs(fdx))
    else:
        fd = fd_hessian(lambda yy: f(x, yy), y)
        diffs.append(np.abs(jet.hess_yy - fd).ravel()); scales.append(np.abs(fd).ravel())
        fdm = _fd_mixed(f, x, y)
        diffs.append(np.abs(jet.hess_xy - fdm).ravel()); scales.append(np.abs(fdm).ravel())
    diff = np.concatenate(diffs)
    scale = np.concatenate(scales)
    max_abs = float(diff.max()) if diff.size else 0.0
    rel = diff / (1.0 + scale)
    return FdReport(order, max_abs, float(rel.max()) if rel.size else 0.0)


def _fd_mixed(f: ScalarFunction, x, y, rel_step=None, levels: int = 2) -> np.ndarray:
    step0 = rel_step if rel_step is not None else _EPS ** 0.2
    nx, ny = len(x), len(y)
    out = np.zeros((nx, ny))
    for k in range(nx):
        hk0 = step0 * (1.0 + abs(x[k]))
        for l in range(ny):
            hl0 = step0 * (1.0 + abs(y[l]))
            ladder = []
            for lv in range(levels + 1):
                hk = hk0 / 2 ** lv
                hl = hl0 / 2 ** lv
                xp = x.copy(); xp[k] += hk
                xm = x.copy(); xm[k] -= hk
                yp = y.copy(); yp[l] += hl
                ym = y.copy(); ym[l] -= hl
                ladder.append(
                    (f(xp, yp) - f(xp, ym) - f(xm, yp) + f(xm, ym)) / (4 * hk * hl)
                )
            out[k, l] = _richardson(ladder)
    return out
