"""Transformed-metric quantities of Fbar = F^2/beta and their adjudication.

Several of the printed closed forms for the transformed fundamental tensor and
its inverse are mutually inconsistent, so the single source of truth is the
differentiation oracle (half the y-Hessian of Fbar^2).  Every closed form is
evaluated verbatim and its residual against the oracle is *reported*, never
asserted; only the supporting covector, which is a direct first derivative, is
expected to be tight.

Points may come stacked (N, n): the snapshot, the scalar family and the
residual rows then hold one entry per sample (per-sample scalars gain unit
axes to broadcast against vectors and matrices), and merge_reports reduces
the rows to their per-formula maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import calculus
from .errors import DegenerateOrderFour
from .fields import CoefficientField, OneFormField, dot, matvec, outer
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
    """Every transformed quantity at (x, y), closed forms and oracle side, per sample of a stack."""

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
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None
) -> KropinaPoint:
    """The transformed snapshot; `jets` is the pass (A, beta) when the caller made it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A, beta_jet = calculus.field_jets(field, oneform, x, y) if jets is None else jets
    base = metric_point(field, m, x, y, A)
    b = beta_jet.grad_y
    beta = beta_jet.val
    F, A_i, A_ij = base.F, base.A_i, base.A_ij

    Fbar = F ** 2 / beta
    tau = F / beta
    # the per-sample scalars against vectors, then against matrices
    Fv, betav = F[..., None], beta[..., None]
    lbar = 2 * A_i / (betav * Fv ** (m - 2)) - Fv ** 2 * b / betav ** 2

    cross = outer(A_i, b) + outer(b, A_i)
    aa = outer(A_i, A_i)
    bb = outer(b, b)

    Fm, betam, Fbarm, taum = (v[..., None, None] for v in (F, beta, Fbar, tau))
    hbar_closed = (2 * Fbarm / betam) * (
        (m - 1) * A_ij / Fm ** (m - 2)
        - cross / (Fm ** (m - 2) * betam)
        + bb / (Fm ** 2 * betam ** 2)
        - (m - 2) * aa / Fm ** (2 * (m - 1))
    )
    gbar_closed = 2 * taum ** 2 * (
        (m - 1) * A_ij / Fm ** (m - 2)
        - 2 * taum * cross / Fm ** (m - 1)
        + taum ** 2 * (1 / Fm ** 4 + 0.5) * bb
        - (m - 4) * aa / Fm ** (2 * (m - 1))
    )
    gbar_split = (
        2 * taum ** 2 * base.g
        - 4 * taum ** 3 * cross / Fm ** (m - 1)
        + (2 + Fm ** 4) * bb / betam ** 4
        + 4 * taum ** 2 * aa / Fm ** (2 * (m - 1))
    )

    energy_jet = calculus.kropina_energy(field, oneform, m).compose(A, beta_jet)
    norm_jet = calculus.kropina_norm(field, oneform, m).compose(A, beta_jet)
    gbar_oracle = 0.5 * energy_jet.hess_yy
    hbar_oracle = Fbarm * norm_jet.hess_yy
    gbar_inv_numeric = _invert_guarded(gbar_oracle, "transformed fundamental tensor")

    b2 = dot(b, matvec(base.A_inv, b))
    aux = aux_scalars_from(F, beta, b2, m)

    if aux.degenerate_order4:
        gbar_inv_closed = np.full(A_ij.shape, NAN)
        gbar_inv_split = gbar_inv_closed.copy()
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
    m, y = base.m, base.y
    F, beta, tau, p0, p1, p2, p3, d2 = (
        v[..., None, None] for v in (
            base.F, beta, aux.tau, aux.p0, aux.p1, aux.p2, aux.p3, aux.d2
        )
    )
    b_up = matvec(base.A_inv, b)
    mixed = outer(b_up, y) + outer(y, b_up)
    mixed_coef = (
        2 * beta ** 3 * (m - 4) * p1
        / (F ** 2 * (m - 1) * (beta ** 4 * (m - 4) - 8 * F ** 4 * d2))
    )
    if split:
        lead = base.g_inv / (2 * tau ** 2)
        tail = p3 * outer(y, y)
    else:
        lead = F ** (m - 2) * base.A_inv / (2 * tau ** 2 * (m - 1))
        tail = p2 * outer(y, y)
    return lead + p0 * outer(b_up, b_up) + mixed_coef * mixed + tail


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
    """Max residual of one closed form against its oracle quantity.

    On a stack of samples max_abs and max_rel hold one value per sample and
    x and y the stacked points; merge_reports reduces them to the maximum.
    """

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
    # a vector or matrix per sample: the maxima run over its trailing axes
    axes = tuple(range(point.base.y.ndim - 1 - closed.ndim, 0))
    diff = np.max(np.abs(closed - reference), axis=axes)
    rel = diff / (1.0 + np.max(np.abs(reference), axis=axes))
    return ResidualRow(formula, diff, rel, point.base.x, point.base.y, note)


def _degenerate_row(formula) -> ResidualRow:
    return ResidualRow(formula, None, None, note="degenerate at m = 4")


def verify_kropina_forms(point: KropinaPoint) -> DiscrepancyReport:
    """Residual rows for every transformed closed form, per sample of the point's stack."""
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
        rows=rows, points=int(np.prod(point.base.y.shape[:-1])),
        degenerate_order4=point.aux.degenerate_order4, notes=[B2_NOTE],
    )


def merge_reports(reports) -> DiscrepancyReport:
    """Per-formula max across reports of single points or stacks, keeping the point of max.

    Rows that are undefined (None) lose to defined ones; np.argmax keeps the
    earliest sample of a tie.
    """
    reports = list(reports)
    notes = []
    for rep in reports:
        for note in rep.notes:
            if note not in notes:
                notes.append(note)
    rows = []
    for formula in dict.fromkeys(row.formula for rep in reports for row in rep.rows):
        candidates = [row for rep in reports for row in rep.rows if row.formula == formula]
        valued = [row for row in candidates if row.max_abs is not None]
        if not valued:
            rows.append(candidates[0])
            continue
        max_abs, max_rel = (
            np.concatenate([np.ravel(getattr(row, key)) for row in valued])
            for key in ("max_abs", "max_rel")
        )
        xs, ys = (
            np.concatenate([np.reshape(getattr(row, key), (-1, np.shape(row.x)[-1]))
                            for row in valued])
            for key in ("x", "y")
        )
        i = int(np.argmax(max_abs))
        rows.append(ResidualRow(
            formula, float(max_abs[i]), float(max_rel[i]),
            tuple(xs[i].tolist()), tuple(ys[i].tolist()), valued[0].note,
        ))
    return DiscrepancyReport(
        rows=rows, points=sum(rep.points for rep in reports),
        degenerate_order4=any(rep.degenerate_order4 for rep in reports), notes=notes,
    )
