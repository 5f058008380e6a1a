"""Base-metric quantities of the m-th root norm F = (form)^(1/m).

The closed forms for the fundamental tensor and its inverse are evaluated
here, verbatim, on the contractions read off the oracle's pass of the form;
`verify_base_forms` measures them against the differentiation oracle.  A
snapshot holds one point, or a stack of samples with a leading batch axis on
every field; the closed forms broadcast over it unchanged.  Every matrix the
package solves or inverts passes `symmetric_cond` first, then goes straight to
the LAPACK gufunc that numpy.linalg wraps (`solve_guarded`, `_invert_guarded`).
The guard tells a single matrix clearly within the limit in Python floats, off
one list of its eigenvalues; a stack, or a matrix near the limit, singular or
not finite, goes through the array code that names the failing sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
# Private, but the gufuncs np.linalg.solve/eigvalsh/inv call: on 2x2-4x4 float64
# matrices the wrappers' checks and errstate cost several times the call, and
# symmetric_cond has refused every matrix for which they would raise.
from numpy.linalg import _umath_linalg

from . import calculus
from .errors import RiemannianOrderWarning, SingularMatrix, in_sample_order, raise_first
from .fields import CoefficientField, Jet, outer

COND_LIMIT = 1e12

ORDER_MIN = 2
ORDER_MAX = 8
ORDER2_NOTICE = "order 2 is Riemannian: closed forms target m > 2"


def symmetric_cond(matrix: np.ndarray, template: str) -> None:
    """The condition guard of a symmetric matrix or a stack of them: SingularMatrix,
    `template` formatted with the 2-norm condition number max over min |eigenvalue|,
    for the lowest matrix where that number is above COND_LIMIT or not finite.
    Only if some matrix is not clearly within the limit (max |eig| < COND_LIMIT / 2
    min |eig|: finite, nonzero) is the number computed, under errstate.  One matrix
    decides that clear case in Python floats; a NaN fails every comparison."""
    eig = _umath_linalg.eigvalsh_lo(matrix)
    if eig.ndim == 1:
        bound = 0.5 * COND_LIMIT * min(size := [abs(e) for e in eig.tolist()])
        if all(s < bound for s in size):
            return
    eig = np.abs(eig)
    hi, lo = eig.max(axis=-1), eig.min(axis=-1)
    if (hi < 0.5 * COND_LIMIT * lo).all():
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = hi / lo
    raise_first(~(cond <= COND_LIMIT), SingularMatrix, template, cond)


def solve_guarded(matrix: np.ndarray, rhs: np.ndarray, template: str) -> np.ndarray:
    """matrix^-1 rhs per sample of a stack, after the condition guard (`template` as there)."""
    symmetric_cond(matrix, template)
    return _umath_linalg.solve1(matrix, rhs)


def _invert_guarded(matrix: np.ndarray, label: str) -> np.ndarray:
    symmetric_cond(matrix, f"{label} has condition number {{:.3e}}")
    return _umath_linalg.inv(matrix)


@dataclass
class MetricPoint:
    """Immutable snapshot of every base-metric quantity at (x, y), per sample of a stack."""

    n: int
    m: int
    x: np.ndarray
    y: np.ndarray
    A: float            # degree-m form value
    A_i: np.ndarray     # first y-saturated contraction
    A_ij: np.ndarray    # second contraction
    F: float            # m-th root norm
    l: np.ndarray       # normalized supporting covector dF/dy
    g: np.ndarray       # fundamental tensor, closed form
    g_inv: np.ndarray   # closed-form inverse
    A_inv: np.ndarray   # inverse of the second contraction
    field: CoefficientField
    order_flag: str = ""


@in_sample_order
def metric_point(field: CoefficientField, m: int, x, y, A: Jet = None) -> MetricPoint:
    """Assemble the base-metric snapshot; closed forms for g and its inverse.

    g_ij  = (m-1) A_ij / F^(m-2) - (m-2) A_i A_j / F^(2(m-1))
    g^ij  = F^(m-2) A^ij / (m-1) + (m-2) y^i y^j / ((m-1) F^2)
    with A^ij the numerically inverted second contraction.  The contractions
    are read off the pass of the form: A_i = A_y / m, A_ij = A_yy / (m(m-1)).
    `A` is that pass when the caller already made it; x and y may be stacks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if A is None:
        A = calculus.field_jets(field, None, x, y).group(0)

    order_flag = ""
    if m == 2:
        order_flag = ORDER2_NOTICE
        # the caller's line: levels 2 and 3 are the scope in_sample_order opens
        warnings.warn(order_flag, RiemannianOrderWarning, stacklevel=4)

    A_i = A.grad_y / m
    A_ij = A.hess_yy / (m * (m - 1))
    A = A.val
    F = A ** (1.0 / m)
    Fv, Fm = F[..., None], F[..., None, None]  # F against vectors and matrices

    l = A_i / Fv ** (m - 1)
    g = (m - 1) * A_ij / Fm ** (m - 2) - (m - 2) * outer(A_i, A_i) / Fm ** (2 * (m - 1))
    A_inv = _invert_guarded(A_ij, "second contraction")
    g_inv = Fm ** (m - 2) * A_inv / (m - 1) + (m - 2) * outer(y, y) / ((m - 1) * Fm ** 2)

    return MetricPoint(
        n=field.n, m=m, x=x, y=y, A=A, A_i=A_i, A_ij=A_ij,
        F=F, l=l, g=g, g_inv=g_inv, A_inv=A_inv, field=field, order_flag=order_flag,
    )


def angular_tensor(point: MetricPoint) -> np.ndarray:
    """F times the y-Hessian of F, built from the oracle; annihilates y."""
    norm_fn = calculus.mth_root_norm(point.field, point.m)
    return point.F * calculus.hess_y(norm_fn, point.x, point.y)


@dataclass
class BaseFormReport:
    """Closed forms versus the oracle at one point."""

    g_residual: float        # max |g_closed - half hessian of F^2|
    inverse_residual: float  # max |g_inv_closed @ g_closed - identity|


def verify_base_forms(point: MetricPoint) -> BaseFormReport:
    energy = calculus.base_energy(point.field, point.m)
    oracle = 0.5 * calculus.hess_y(energy, point.x, point.y)
    g_res = float(np.max(np.abs(point.g - oracle)))
    eye_res = float(np.max(np.abs(point.g_inv @ point.g - np.eye(point.n))))
    return BaseFormReport(g_res, eye_res)
