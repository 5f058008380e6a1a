"""Dually-flat, projectively-flat and projective-relatedness checks of the
transformed metric.

Verdicts come exclusively from the operational residuals, which restate the
defining displays through the oracle:

  dually flat:        [Fbar^2]_{x^k y^l} y^k - 2 [Fbar^2]_{x^l} = 0
  projectively flat:  [Fbar]_{x^k y^l} y^k - [Fbar]_{x^l} = 0

The closed-form characterizations are evaluated verbatim as diagnostics only:
one of them keeps a copy of the left side on its right side, and the final
term of the other exists in two prints with inconsistent powers.  Neither is
asserted: `check` reports the first reading's residual as its closed-form
residual, and only proj_flat_condition returns the second (`residual_alt`).
Both conditions read A, F = A^(1/m) and A_y straight off the pass, so they
never invert the second contraction.

Every residual and condition takes a stack of samples (N, n) as well as one
point, reads the oracle's pass of A and beta and is one stack evaluation
(errors.in_sample_order).  check_report gives the verdict of each `check`
kind, the two flatness kinds and proj-related (the wedge residual of
`spray.projective_residual`), by one rule: evaluate the accepted stack,
refuse a residual that is not finite, take the maximum and compare it with
the tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import calculus, spray
from .errors import RiemannianOrderWarning, check_finite, in_sample_order
from .fields import CoefficientField, OneFormField, dot, vecmat
from .metric import ORDER2_NOTICE

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


@in_sample_order
def intermediates(
    field: CoefficientField, oneform: OneFormField, x, y, jets=None
) -> FlatnessIntermediates:
    """The contractions, read off one derivative pass of A and beta (`jets` if given)."""
    y = np.asarray(y, dtype=float)
    A, beta = map(_jets(field, oneform, x, y, jets).group, (0, 1))
    return FlatnessIntermediates(dot(A.grad_x, y), vecmat(y, A.hess_xy), beta.grad_x, A.grad_x)


# ---------------------------------------------------------------------------
# operational residuals (the verdict-carrying quantities)
# ---------------------------------------------------------------------------

@in_sample_order
def _defect(fn: calculus.ScalarFunction, x, y, factor: float, jets=None):
    """fn and its [fn]_{x^k y^l} y^k - factor [fn]_{x^l}, from one pass."""
    y = np.asarray(y, dtype=float)
    jet = fn.compose(_jets(fn.field, fn.oneform, x, y, jets))
    return jet.val, vecmat(y, jet.hess_xy) - factor * jet.grad_x


def _residual(value, defect):
    return np.max(np.abs(defect), axis=-1) / (1.0 + np.abs(value))


def dually_flat_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> float:
    return _residual(*_defect(calculus.kropina_energy(field, oneform, m), x, y, 2.0, jets))


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


def _condition_terms(field, oneform, m, x, y, jets):
    """The intermediates, b, A_y and the per-sample scalars A, F = A^(1/m), beta,
    A0 and beta_l y^l of both conditions, lifted to broadcast against vectors,
    read off one pass."""
    if m == 2:
        # the condition's caller: levels 3 and 4 are the scope in_sample_order opens
        warnings.warn(ORDER2_NOTICE, RiemannianOrderWarning, stacklevel=5)
    y = np.asarray(y, dtype=float)
    jets = _jets(field, oneform, x, y, jets)
    itm = intermediates(field, oneform, x, y, jets)
    A, beta = jets.group(0), jets.group(1)
    F = A.val ** (1.0 / m)
    scalars = (v[..., None] for v in (A.val, F, beta.val, itm.A0, dot(itm.beta_l, y)))
    return itm, beta.grad_y, A.grad_y, scalars


@in_sample_order
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
    return ConditionEval(lhs=itm.Axl, rhs=rhs, residual=residual)


@in_sample_order
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
    )


# ---------------------------------------------------------------------------
# sampled verdicts
# ---------------------------------------------------------------------------

MIN_VERDICT_SAMPLES = 50

# CLI kind: the kind name reported, the verdict within tolerance and the
# verdict beyond it
CHECKS = {
    "dually-flat": ("dually-flat", "flat-within-tol", "not-flat"),
    "proj-flat": ("projectively-flat", "flat-within-tol", "not-flat"),
    "proj-related": ("proj-related", "related-within-tol", "not-related"),
}


@dataclass
class CheckReport:
    """A sampled check; the verdict uses only the operational residual."""

    kind: str                    # the reported kind name
    residuals: np.ndarray        # operational residual per sample
    max_residual: float
    max_closed_residual: float   # informative; NaN for proj-related
    verdict: str                 # within, beyond or "inconclusive"
    passed: bool


@in_sample_order
def check_report(
    field: CoefficientField, oneform: OneFormField, m: int, kind: str, x, y, tol: float,
    jets=None,
) -> CheckReport:
    """Reduce the accepted samples, a stack (N, n), to the verdict of a CLI check kind.

    The residuals of the kind per sample, each guarded finite: the
    operational one, named by the kind, and for a flatness kind the
    closed-form one, both off one derivative pass, `jets` if given
    (proj-related makes its own at y/||y||).  A verdict needs
    MIN_VERDICT_SAMPLES samples.
    """
    name, within, beyond = CHECKS[kind]
    if kind == "proj-related":
        values = {kind: spray.projective_residual(field, oneform, m, x, y)}
    else:
        residual, condition = {
            "dually-flat": (dually_flat_residual, dually_flat_condition),
            "proj-flat": (proj_flat_residual, proj_flat_condition),
        }[kind]
        jets = _jets(field, oneform, x, y, jets)
        values = {
            kind: residual(field, oneform, m, x, y, jets),
            f"{kind} closed-form": condition(field, oneform, m, x, y, jets).residual,
        }
    check_finite([(f"{key} residual", v) for key, v in values.items()], x, y)
    max_residual, max_closed = (
        float(values[key].max()) if key in values and len(x) else np.nan
        for key in (kind, f"{kind} closed-form")
    )
    if len(x) < MIN_VERDICT_SAMPLES:
        verdict = "inconclusive"
    elif max_residual <= tol:
        verdict = within
    else:
        verdict = beyond
    return CheckReport(name, values[kind], max_residual, max_closed, verdict, verdict == within)
