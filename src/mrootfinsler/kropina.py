"""Transformed-metric quantities of Fbar = F^2/beta and their adjudication.

Several of the printed closed forms for the transformed fundamental tensor and
its inverse are mutually inconsistent, so the single source of truth is the
differentiation oracle (half the y-Hessian of Fbar^2).  Every closed form is
evaluated verbatim and its residual against the oracle is *reported*, never
asserted; only the supporting covector, which is a direct first derivative, is
expected to be tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import calculus
from .errors import DegenerateOrderFour
from .fields import CoefficientField, OneFormField
from .metric import MetricPoint, _invert_guarded, metric_point

NAN = float("nan")

# Interpretation recorded in every report: the squared length of the one-form
# is raised with the inverse second contraction (the only inverse available at
# this stage), not with the transformed metric.
B2_NOTE = "b^2 = A^ij b_i b_j (one-form raised with the inverse second contraction)"


@dataclass
class AuxScalars:
    """Scalar family used by the closed-form inverse and the spray split.

    Everything downstream of `delta` divides by (m - 4) and is therefore
    undefined at order four; those fields hold NaN and the flag is set.
    """

    tau: float
    b2: float
    w: float
    c2: float
    v: float
    delta: float
    q: float
    d2: float
    p0: float
    p1: float
    p2: float
    p3: float
    degenerate_order4: bool


def aux_scalars_from(F: float, beta: float, b2: float, m: int) -> AuxScalars:
    tau = F / beta
    w = F ** (m - 2) / (2 * tau ** 2 * (m - 1))
    c2 = F ** (m - 3) * beta * b2 / (2 * tau * (m - 1))
    v = (m - 4) * beta / (2 * F ** m)
    if m == 4:
        return AuxScalars(tau, b2, w, c2, v, NAN, NAN, NAN, NAN, NAN, NAN, NAN, True)
    delta = -8 * F ** 4 / (beta ** 4 * (m - 4))
    q = delta * w ** 2 / (1 + delta * c2)
    d2 = w * (
        v * beta
        + v ** 2 * F ** m
        + (b2 + v * beta) * (1 - delta * w * (1 + v) / (1 + delta * c2))
    )
    bracket = (m - 4) - 8 * tau ** 4 * d2
    p0 = 4 * F ** m * (1 + q * (q * (1 + v) - (3 + v))) / (beta ** 2 * bracket)
    p1 = (
        8 * (m - 1) ** 2 * tau ** 4
        + 2 * delta * F ** (2 * (m - 2))
        + delta * F ** (m - 4) * (m - 4) * beta
    ) / (4 * tau ** 4 * (m - 1) ** 2 + delta * F ** (m - 2) * b2 * tau ** 4)
    p2 = (m - 4) ** 2 / (2 * F ** 6 * bracket)
    p3 = (
        (m - 4) ** 2 * (m - 1) * tau ** 2 - (m - 2) * bracket * beta ** 4
    ) / (2 * F ** 2 * tau ** 2 * beta ** 4 * (m - 1) * bracket)
    return AuxScalars(tau, b2, w, c2, v, delta, q, d2, p0, p1, p2, p3, False)


@dataclass
class KropinaPoint:
    """Every transformed quantity at one (x, y), closed forms and oracle side."""

    base: MetricPoint
    oneform: OneFormField
    b: np.ndarray
    beta: float
    Fbar: float
    lbar: np.ndarray            # closed-form supporting covector
    hbar_closed: np.ndarray     # printed closed form of the angular tensor
    hbar_oracle: np.ndarray     # Fbar * y-Hessian of Fbar
    gbar_closed: np.ndarray     # direct closed form of the fundamental tensor
    gbar_split: np.ndarray      # closed form split off the base tensor
    gbar_oracle: np.ndarray     # half y-Hessian of Fbar^2 (source of truth)
    gbar_inv_closed: np.ndarray # closed-form inverse (NaN matrix at m = 4)
    gbar_inv_split: np.ndarray  # split-form inverse (NaN matrix at m = 4)
    gbar_inv_numeric: np.ndarray
    lbar_oracle: np.ndarray     # y-gradient of Fbar
    aux: AuxScalars


def kropina_point(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> KropinaPoint:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = oneform.values_at(x)
    beta = oneform.beta_checked(x, y)  # one-form guard first: it defines the domain
    base = metric_point(field, m, x, y)
    F, A_i, A_ij = base.F, base.A_i, base.A_ij

    Fbar = F ** 2 / beta
    tau = F / beta
    lbar = 2 * A_i / (beta * F ** (m - 2)) - F ** 2 * b / beta ** 2

    cross = np.outer(A_i, b) + np.outer(b, A_i)
    aa = np.outer(A_i, A_i)
    bb = np.outer(b, b)

    hbar_closed = (2 * Fbar / beta) * (
        (m - 1) * A_ij / F ** (m - 2)
        - cross / (F ** (m - 2) * beta)
        + bb / (F ** 2 * beta ** 2)
        - (m - 2) * aa / F ** (2 * (m - 1))
    )
    gbar_closed = 2 * tau ** 2 * (
        (m - 1) * A_ij / F ** (m - 2)
        - 2 * tau * cross / F ** (m - 1)
        + tau ** 2 * (1 / F ** 4 + 0.5) * bb
        - (m - 4) * aa / F ** (2 * (m - 1))
    )
    gbar_split = (
        2 * tau ** 2 * base.g
        - 4 * tau ** 3 * cross / F ** (m - 1)
        + (2 + F ** 4) * bb / beta ** 4
        + 4 * tau ** 2 * aa / F ** (2 * (m - 1))
    )

    A, beta_jet = calculus.field_jets(field, oneform, x, y)
    energy_jet = calculus.kropina_energy(field, oneform, m).compose(A, beta_jet)
    norm_jet = calculus.kropina_norm(field, oneform, m).compose(A, beta_jet)
    gbar_oracle = 0.5 * energy_jet.hess_yy
    hbar_oracle = Fbar * norm_jet.hess_yy
    gbar_inv_numeric = _invert_guarded(gbar_oracle, "transformed fundamental tensor")

    b2 = float(b @ base.A_inv @ b)
    aux = aux_scalars_from(F, beta, b2, m)

    nan_matrix = np.full((base.n, base.n), NAN)
    if aux.degenerate_order4:
        gbar_inv_closed = nan_matrix
        gbar_inv_split = nan_matrix.copy()
    else:
        gbar_inv_closed = _closed_inverse(base, b, beta, aux, split=False)
        gbar_inv_split = _closed_inverse(base, b, beta, aux, split=True)

    return KropinaPoint(
        base=base, oneform=oneform, b=b, beta=beta, Fbar=Fbar, lbar=lbar,
        hbar_closed=hbar_closed, hbar_oracle=hbar_oracle,
        gbar_closed=gbar_closed, gbar_split=gbar_split, gbar_oracle=gbar_oracle,
        gbar_inv_closed=gbar_inv_closed, gbar_inv_split=gbar_inv_split,
        gbar_inv_numeric=gbar_inv_numeric, lbar_oracle=norm_jet.grad_y, aux=aux,
    )


def _closed_inverse(
    base: MetricPoint, b: np.ndarray, beta: float, aux: AuxScalars, split: bool
) -> np.ndarray:
    m, F, y = base.m, base.F, base.y
    b_up = base.A_inv @ b
    mixed = np.outer(b_up, y) + np.outer(y, b_up)
    mixed_coef = (
        2 * beta ** 3 * (m - 4) * aux.p1
        / (F ** 2 * (m - 1) * (beta ** 4 * (m - 4) - 8 * F ** 4 * aux.d2))
    )
    if split:
        lead = base.g_inv / (2 * aux.tau ** 2)
        tail = aux.p3 * np.outer(y, y)
    else:
        lead = F ** (m - 2) * base.A_inv / (2 * aux.tau ** 2 * (m - 1))
        tail = aux.p2 * np.outer(y, y)
    return lead + aux.p0 * np.outer(b_up, b_up) + mixed_coef * mixed + tail


def gbar_inverse_closed(point: KropinaPoint, split: bool = False) -> np.ndarray:
    """Closed-form contravariant tensor; raises at the order-4 degeneracy."""
    if point.aux.degenerate_order4:
        raise DegenerateOrderFour("closed-form inverse undefined at m = 4")
    return _closed_inverse(point.base, point.b, point.beta, point.aux, split)


# ---------------------------------------------------------------------------
# discrepancy reporting
# ---------------------------------------------------------------------------

@dataclass
class ResidualRow:
    """Max residual of one closed form against its oracle quantity."""

    formula: str
    max_abs: Optional[float]
    max_rel: Optional[float]
    x: Optional[tuple] = None
    y: Optional[tuple] = None
    note: str = ""


@dataclass
class DiscrepancyReport:
    rows: list
    points: int
    degenerate_order4: bool = False
    notes: list = dc_field(default_factory=list)


def _row(formula, closed, reference, point, note="") -> ResidualRow:
    diff = float(np.max(np.abs(closed - reference)))
    rel = diff / (1.0 + float(np.max(np.abs(reference))))
    return ResidualRow(
        formula, diff, rel,
        tuple(point.base.x.tolist()), tuple(point.base.y.tolist()), note,
    )


def _degenerate_row(formula) -> ResidualRow:
    return ResidualRow(formula, None, None, note="degenerate at m = 4")


def verify_kropina_forms(point: KropinaPoint) -> DiscrepancyReport:
    """Residual rows for every transformed closed form at a single point."""
    rows = [
        _row("lbar_closed", point.lbar, point.lbar_oracle, point),
        _row("hbar_closed", point.hbar_closed, point.hbar_oracle, point),
        _row("gbar_closed", point.gbar_closed, point.gbar_oracle, point),
        _row("gbar_split", point.gbar_split, point.gbar_oracle, point),
    ]
    if point.aux.degenerate_order4:
        rows += [
            _degenerate_row("gbar_inv_closed"),
            _degenerate_row("gbar_inv_split"),
            _degenerate_row("gbar_inv_closed_identity"),
            _degenerate_row("gbar_inv_split_identity"),
        ]
    else:
        eye = np.eye(point.base.n)
        rows += [
            _row("gbar_inv_closed", point.gbar_inv_closed, point.gbar_inv_numeric, point),
            _row("gbar_inv_split", point.gbar_inv_split, point.gbar_inv_numeric, point),
            _row(
                "gbar_inv_closed_identity",
                point.gbar_inv_closed @ point.gbar_oracle, eye, point,
                note="closed inverse times oracle tensor vs identity",
            ),
            _row(
                "gbar_inv_split_identity",
                point.gbar_inv_split @ point.gbar_oracle, eye, point,
                note="split inverse times oracle tensor vs identity",
            ),
        ]
    return DiscrepancyReport(
        rows=rows, points=1,
        degenerate_order4=point.aux.degenerate_order4, notes=[B2_NOTE],
    )


def merge_reports(reports) -> DiscrepancyReport:
    """Per-formula max across single-point reports, keeping the argmax point."""
    best = {}
    order = []
    degenerate = False
    points = 0
    notes = []
    for rep in reports:
        points += rep.points
        degenerate = degenerate or rep.degenerate_order4
        for note in rep.notes:
            if note not in notes:
                notes.append(note)
        for row in rep.rows:
            if row.formula not in best:
                best[row.formula] = row
                order.append(row.formula)
            else:
                cur = best[row.formula]
                if row.max_abs is not None and (
                    cur.max_abs is None or row.max_abs > cur.max_abs
                ):
                    best[row.formula] = row
    return DiscrepancyReport(
        rows=[best[name] for name in order], points=points,
        degenerate_order4=degenerate, notes=notes,
    )
