"""Dually-flat and projectively-flat testing for the transformed metric.

Verdicts come exclusively from the operational residuals, which restate the
defining displays through the oracle:

  dually flat:        [Fbar^2]_{x^k y^l} y^k - 2 [Fbar^2]_{x^l} = 0
  projectively flat:  [Fbar]_{x^k y^l} y^k - [Fbar]_{x^l} = 0

The closed-form characterizations are evaluated verbatim as diagnostics only:
one of them keeps a copy of the left side on its right side, and the final
term of the other exists in two prints with inconsistent powers, so both
readings are reported and neither is asserted.

Every residual and condition takes a stack of samples (N, n) as well as one
point and reads the oracle's pass of A and beta; flatness_report makes that
pass once for all accepted samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import in_sample_order
from .fields import CoefficientField, OneFormField, dot, vecmat
from .metric import metric_point
from .sampling import stack

DEFAULT_TOL = 1e-8


@dataclass
class FlatnessIntermediates:
    """x-derivative contractions entering the closed-form conditions, per sample."""

    A0: float            # dA/dx^k y^k
    A0l: np.ndarray      # d2A/dx^k dy^l y^k
    beta_l: np.ndarray   # db_k/dx^l y^k
    Axl: np.ndarray      # dA/dx^l


def _jets(field, oneform, x, y, jets):
    return calculus.field_jets(field, oneform, x, y) if jets is None else jets


def intermediates(
    field: CoefficientField, oneform: OneFormField, x, y, jets=None
) -> FlatnessIntermediates:
    """The contractions, read off one derivative pass of A and beta (`jets` if given)."""
    y = np.asarray(y, dtype=float)
    A, beta = _jets(field, oneform, x, y, jets)
    return FlatnessIntermediates(dot(A.grad_x, y), vecmat(y, A.hess_xy), beta.grad_x, A.grad_x)


# ---------------------------------------------------------------------------
# operational residuals (the verdict-carrying quantities)
# ---------------------------------------------------------------------------

def _defect(fn: calculus.ScalarFunction, x, y, factor: float, jets=None):
    """fn and its [fn]_{x^k y^l} y^k - factor [fn]_{x^l}, from one pass."""
    y = np.asarray(y, dtype=float)
    jet = fn.compose(*_jets(fn.field, fn.oneform, x, y, jets))
    return jet.val, vecmat(y, jet.hess_xy) - factor * jet.grad_x


def _residual(value, defect):
    return np.max(np.abs(defect), axis=-1) / (1.0 + np.abs(value))


def dually_flat_defect(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> np.ndarray:
    """Per-component [Fbar^2]_{x^k y^l} y^k - 2 [Fbar^2]_{x^l}, unnormalised."""
    return _defect(calculus.kropina_energy(field, oneform, m), x, y, 2.0)[1]


def dually_flat_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> float:
    return _residual(*_defect(calculus.kropina_energy(field, oneform, m), x, y, 2.0, jets))


def proj_flat_defect(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> np.ndarray:
    """Per-component [Fbar]_{x^k y^l} y^k - [Fbar]_{x^l}, unnormalised."""
    return _defect(calculus.kropina_norm(field, oneform, m), x, y, 1.0)[1]


def proj_flat_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> float:
    return _residual(*_defect(calculus.kropina_norm(field, oneform, m), x, y, 1.0, jets))


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


def _condition_terms(field, oneform, m, x, y, jets):
    """The intermediates and the per-sample scalars of both conditions, lifted
    to broadcast against vectors, from one pass."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jets = _jets(field, oneform, x, y, jets)
    base = metric_point(field, m, x, y, jets[0])
    itm = intermediates(field, oneform, x, y, jets)
    b = jets[1].grad_y
    scalars = (v[..., None] for v in (base.A, base.F, jets[1].val, itm.A0, dot(itm.beta_l, y)))
    return itm, b, m * base.A_i, scalars


def dually_flat_condition(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> ConditionEval:
    """Verbatim closed-form dual-flatness condition.

    The right side keeps its printed -A_{x^l} copy of the left side.  The
    printed fourth term carries a dangling contraction index; it is read with
    the one-form x-gradient restored, matching the projective analogue.
    """
    itm, b, Ay, (A, F, beta, A0, bky) = _condition_terms(field, oneform, m, x, y, jets)

    rhs = (
        (1.0 / (2 * beta * F ** 2)) * ((4.0 - m) / m) * A0 * Ay
        + 0.5 * itm.A0l
        - (A0 / beta) * b
        - (bky / beta) * Ay
        + (3 * m / (4 * beta ** 2)) * A * bky * b
        + (m / (2 * beta)) * A * itm.beta_l
        - itm.Axl
        + (m / (2 * beta)) * A * b
    )
    residual = np.max(np.abs(itm.Axl - rhs), axis=-1)
    return ConditionEval(
        lhs=itm.Axl, rhs=rhs, residual=residual,
        note="right side retains a copy of the left side, evaluated verbatim",
    )


def proj_flat_condition(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> ConditionEval:
    """Verbatim closed-form projective-flatness condition, both final terms.

    The final term is printed once with a full power of the form over one
    power of the one-form value and once (in the display it descends from)
    with an extra one-form power; `rhs` carries the first, `rhs_alt` the
    second.
    """
    itm, b, Ay, (A, F, beta, A0, bky) = _condition_terms(field, oneform, m, x, y, jets)

    common = (
        ((2.0 - m) / m) * (A0 / A) * Ay
        + itm.A0l
        - (A0 / beta) * b
        - (bky / beta) * Ay
    )
    rhs = common + (m / beta) * A * bky * b
    rhs_alt = common + (m / beta ** 2) * A * bky * b
    return ConditionEval(
        lhs=itm.Axl,
        rhs=rhs,
        residual=np.max(np.abs(itm.Axl - rhs), axis=-1),
        rhs_alt=rhs_alt,
        residual_alt=np.max(np.abs(itm.Axl - rhs_alt), axis=-1),
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
    """Reduce accepted samples to a verdict; closed-form residual is informative.

    The samples are evaluated as one stack with one derivative pass; a
    failure is the one a loop over them would meet first.
    """
    if kind == "dually-flat":
        residual_fn, condition_fn = dually_flat_residual, dually_flat_condition
    elif kind == "projectively-flat":
        residual_fn, condition_fn = proj_flat_residual, proj_flat_condition
    else:
        raise ValueError(f"unknown flatness kind {kind!r}")

    def evaluate(x, y):
        jets = calculus.field_jets(field, oneform, x, y)
        return (
            residual_fn(field, oneform, m, x, y, jets),
            condition_fn(field, oneform, m, x, y, jets).residual,
        )

    residuals, closed = [], []
    if samples:
        residuals, closed = (v.tolist() for v in in_sample_order(evaluate, *stack(samples)))
    # the running maxima a loop over the samples would keep, from 0
    max_residual = max([0.0] + residuals)
    max_closed = max([0.0] + closed)
    count = len(residuals)

    if count < MIN_VERDICT_SAMPLES:
        verdict = "inconclusive"
    elif max_residual <= tol:
        verdict = "flat-within-tol"
    else:
        verdict = "not-flat"
    return FlatnessReport(kind, count, max_residual, max_closed, verdict, tol, rejected)
