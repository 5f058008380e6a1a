"""Dually-flat and projectively-flat testing for the transformed metric.

Verdicts come exclusively from the operational residuals, which restate the
defining displays through the oracle:

  dually flat:        [Fbar^2]_{x^k y^l} y^k - 2 [Fbar^2]_{x^l} = 0
  projectively flat:  [Fbar]_{x^k y^l} y^k - [Fbar]_{x^l} = 0

The closed-form characterizations are evaluated verbatim as diagnostics only:
one of them keeps a copy of the left side on its right side, and the final
term of the other exists in two prints with inconsistent powers, so both
readings are reported and neither is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .fields import CoefficientField, OneFormField
from .metric import metric_point

DEFAULT_TOL = 1e-8


@dataclass
class FlatnessIntermediates:
    """x-derivative contractions entering the closed-form conditions."""

    A0: float            # dA/dx^k y^k
    A0l: np.ndarray      # d2A/dx^k dy^l y^k
    beta_l: np.ndarray   # db_k/dx^l y^k
    Axl: np.ndarray      # dA/dx^l


def intermediates(
    field: CoefficientField, oneform: OneFormField, x, y
) -> FlatnessIntermediates:
    """The contractions, read off one derivative pass of A and beta."""
    y = np.asarray(y, dtype=float)
    A, beta = calculus.field_jets(field, oneform, x, y)
    return FlatnessIntermediates(
        float(A.grad_x @ y), y @ A.hess_xy, beta.grad_x, A.grad_x
    )


# ---------------------------------------------------------------------------
# operational residuals (the verdict-carrying quantities)
# ---------------------------------------------------------------------------

def _defect(fn: calculus.ScalarFunction, x, y, factor: float):
    """fn and its [fn]_{x^k y^l} y^k - factor [fn]_{x^l}, from one pass."""
    y = np.asarray(y, dtype=float)
    jet = calculus.derivatives(fn, x, y)
    return jet.val, y @ jet.hess_xy - factor * jet.grad_x


def dually_flat_defect(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> np.ndarray:
    """Per-component [Fbar^2]_{x^k y^l} y^k - 2 [Fbar^2]_{x^l}, unnormalised."""
    return _defect(calculus.kropina_energy(field, oneform, m), x, y, 2.0)[1]


def dually_flat_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> float:
    value, defect = _defect(calculus.kropina_energy(field, oneform, m), x, y, 2.0)
    return float(np.max(np.abs(defect))) / (1.0 + abs(value))


def proj_flat_defect(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> np.ndarray:
    """Per-component [Fbar]_{x^k y^l} y^k - [Fbar]_{x^l}, unnormalised."""
    return _defect(calculus.kropina_norm(field, oneform, m), x, y, 1.0)[1]


def proj_flat_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> float:
    value, defect = _defect(calculus.kropina_norm(field, oneform, m), x, y, 1.0)
    return float(np.max(np.abs(defect))) / (1.0 + abs(value))


# ---------------------------------------------------------------------------
# verbatim closed-form conditions (diagnostic only)
# ---------------------------------------------------------------------------

@dataclass
class ConditionEval:
    """Left side, right side(s) and residual of a closed-form condition."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: float
    rhs_alt: np.ndarray = None
    residual_alt: float = None
    note: str = ""


def dually_flat_condition(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> ConditionEval:
    """Verbatim closed-form dual-flatness condition.

    The right side keeps its printed -A_{x^l} copy of the left side.  The
    printed fourth term carries a dangling contraction index; it is read with
    the one-form x-gradient restored, matching the projective analogue.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = metric_point(field, m, x, y)
    itm = intermediates(field, oneform, x, y)
    b = oneform.values_at(x)
    beta = oneform.beta_checked(x, y)
    A, F = base.A, base.F
    Ay = m * base.A_i
    bky = float(itm.beta_l @ y)

    rhs = (
        (1.0 / (2 * beta * F ** 2)) * ((4.0 - m) / m) * itm.A0 * Ay
        + 0.5 * itm.A0l
        - (itm.A0 / beta) * b
        - (bky / beta) * Ay
        + (3 * m / (4 * beta ** 2)) * A * bky * b
        + (m / (2 * beta)) * A * itm.beta_l
        - itm.Axl
        + (m / (2 * beta)) * A * b
    )
    residual = float(np.max(np.abs(itm.Axl - rhs)))
    return ConditionEval(
        lhs=itm.Axl, rhs=rhs, residual=residual,
        note="right side retains a copy of the left side, evaluated verbatim",
    )


def proj_flat_condition(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> ConditionEval:
    """Verbatim closed-form projective-flatness condition, both final terms.

    The final term is printed once with a full power of the form over one
    power of the one-form value and once (in the display it descends from)
    with an extra one-form power; `rhs` carries the first, `rhs_alt` the
    second.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = metric_point(field, m, x, y)
    itm = intermediates(field, oneform, x, y)
    b = oneform.values_at(x)
    beta = oneform.beta_checked(x, y)
    A = base.A
    Ay = m * base.A_i
    bky = float(itm.beta_l @ y)

    common = (
        ((2.0 - m) / m) * (itm.A0 / A) * Ay
        + itm.A0l
        - (itm.A0 / beta) * b
        - (bky / beta) * Ay
    )
    rhs = common + (m / beta) * A * bky * b
    rhs_alt = common + (m / beta ** 2) * A * bky * b
    return ConditionEval(
        lhs=itm.Axl,
        rhs=rhs,
        residual=float(np.max(np.abs(itm.Axl - rhs))),
        rhs_alt=rhs_alt,
        residual_alt=float(np.max(np.abs(itm.Axl - rhs_alt))),
        note="final term evaluated under both printed powers",
    )


# ---------------------------------------------------------------------------
# sampled verdicts
# ---------------------------------------------------------------------------

MIN_VERDICT_SAMPLES = 50


@dataclass
class FlatnessReport:
    """Sampled flatness check; the verdict uses only the operational residual."""

    kind: str                    # "dually-flat" | "projectively-flat"
    points: int
    max_residual: float
    max_closed_residual: float
    verdict: str                 # "flat-within-tol" | "not-flat" | "inconclusive"
    tol: float
    rejected: int = 0


def flatness_report(
    field: CoefficientField, oneform: OneFormField, m: int, kind: str,
    samples, tol: float = DEFAULT_TOL, rejected: int = 0,
) -> FlatnessReport:
    """Reduce accepted samples to a verdict; closed-form residual is informative."""
    if kind == "dually-flat":
        residual_fn, condition_fn = dually_flat_residual, dually_flat_condition
    elif kind == "projectively-flat":
        residual_fn, condition_fn = proj_flat_residual, proj_flat_condition
    else:
        raise ValueError(f"unknown flatness kind {kind!r}")

    max_residual = 0.0
    max_closed = 0.0
    count = 0
    for x, y in samples:
        max_residual = max(max_residual, residual_fn(field, oneform, m, x, y))
        max_closed = max(max_closed, condition_fn(field, oneform, m, x, y).residual)
        count += 1

    if count < MIN_VERDICT_SAMPLES:
        verdict = "inconclusive"
    elif max_residual <= tol:
        verdict = "flat-within-tol"
    else:
        verdict = "not-flat"
    return FlatnessReport(kind, count, max_residual, max_closed, verdict, tol, rejected)
