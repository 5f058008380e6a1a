"""Every residual row of `verify`: one table of formulas, one residual function.

`ROWS` lists the printed closed forms in the order `verify` reports them.
Each entry gives the closed form, the oracle quantity it is measured
against, the scale of its relative residual, its note, and whether it needs
the auxiliary scalar family, which divides by m - 4: those rows are
undefined (None, `null` in JSON) at m = 4.  One Kropina snapshot
(`kropina.kropina_point`) and the spray split read off it alone
(`spray.pq_split`) serve every row.

`point_report(field, oneform, x, y, jets=None)` reads the order m off the
field.  All accepted samples are evaluated at once, as one stack (N, n) with
one derivative pass (the sampler's, in `verify`), as one stack evaluation
(errors.in_sample_order); the rows hold one value per sample, each guarded
finite by `errors.check_finite`, until reduce_report takes the per-formula
maxima.
Every row is a measurement; the only formula expected to be tight is the
supporting covector, and that expectation is asserted by the test suite, not
here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import kropina, spray
from .errors import check_finite, in_sample_order
from .fields import CoefficientField, OneFormField, dot

# Interpretation recorded in every report: the squared length of the one-form
# is raised with the inverse second contraction (the only inverse available at
# this stage), not with the transformed metric.
B2_NOTE = "b^2 = A^ij b_i b_j (one-form raised with the inverse second contraction)"

DEGENERATE_NOTE = "degenerate at m = 4"


@dataclass
class ResidualRow:
    """Max residual of one closed form against its oracle quantity.

    On a stack of samples max_abs and max_rel hold one value per sample and
    x and y the stacked points; reduce_report reduces them to the maximum.
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
    degenerate_order4: bool = False
    notes: list = dc_field(default_factory=list)


# One formula of `verify`: closed(k, s) against oracle(k, s), with k the Kropina
# snapshot and s the spray split of the same samples.  The relative residual
# divides by 1 + max |scale(k, s)|, the oracle quantity when scale is None.  An
# aux row needs the scalar family, so it is undefined at m = 4.  (A named tuple:
# a frozen dataclass costs about a millisecond more at import.)
Row = namedtuple("Row", "formula closed oracle scale note aux", defaults=(None, "", False))


def _identity(k, s):
    return np.eye(k.base.field.n)


def _D(k, s):
    return s.D


def _Q(k, s):
    return s.Q_closed


def _Q_alt(k, s):
    return s.Q_closed_alt


def _split(Q):
    """P y + Q of the closed split, Q(k, s) the vector part of one scalar reading."""
    return lambda k, s: s.P_closed[..., None] * k.base.y + Q(k, s)


def _tangential(v):
    """The part of v(k, s) orthogonal to y, where P y drops out."""
    def part(k, s):
        y, u = k.base.y, v(k, s)
        return u - (dot(u, y) / dot(y, y))[..., None] * y
    return part


ROWS = (
    Row("lbar_closed", lambda k, s: k.lbar, lambda k, s: k.lbar_oracle),
    Row("hbar_closed", lambda k, s: k.hbar_closed, lambda k, s: k.hbar_oracle),
    Row("gbar_closed", lambda k, s: k.gbar_closed, lambda k, s: k.gbar_oracle),
    Row("gbar_split", lambda k, s: k.gbar_split, lambda k, s: k.gbar_oracle),
    Row("gbar_inv_closed", lambda k, s: k.gbar_inv_closed, lambda k, s: k.gbar_inv_numeric,
        aux=True),
    Row("gbar_inv_split", lambda k, s: k.gbar_inv_split, lambda k, s: k.gbar_inv_numeric,
        aux=True),
    Row("gbar_inv_closed_identity", lambda k, s: k.gbar_inv_closed @ k.gbar_oracle, _identity,
        note="closed inverse times oracle tensor vs identity", aux=True),
    Row("gbar_inv_split_identity", lambda k, s: k.gbar_inv_split @ k.gbar_oracle, _identity,
        note="split inverse times oracle tensor vs identity", aux=True),
    Row("spray_split", _split(_Q), _D, _D,
        "max |D - (P y + Q)|, printed scalar reading", aux=True),
    Row("spray_split_alt", _split(_Q_alt), _D, _D,
        "max |D - (P y + Q)|, alternative scalar reading", aux=True),
    Row("spray_tangential", _tangential(_Q), _tangential(_D), _D,
        "y-orthogonal parts of D and Q compared", aux=True),
    Row("spray_tangential_alt", _tangential(_Q_alt), _tangential(_D), _D,
        "same with the alternative scalar reading", aux=True),
    Row("relatedness_balance", lambda k, s: s.Q_lead, lambda k, s: s.Q_inv, _D,
        "printed relatedness condition, |lead - inverse part|", aux=True),
)


def _row(row: Row, k: kropina.KropinaPoint, s: spray.SprayPoint) -> ResidualRow:
    """One row per sample: max |closed - oracle| over the trailing axes, and
    that over 1 + max |scale|; None where the row is undefined at m = 4."""
    if row.aux and k.aux.degenerate_order4:
        return ResidualRow(row.formula, None, None, note=DEGENERATE_NOTE)
    x, y = k.base.x, k.base.y
    closed, oracle = row.closed(k, s), row.oracle(k, s)
    scale = oracle if row.scale is None else row.scale(k, s)
    axes = tuple(range(y.ndim - 1 - closed.ndim, 0))
    diff = np.max(np.abs(closed - oracle), axis=axes)
    rel = diff / (1.0 + np.max(np.abs(scale), axis=axes))
    return ResidualRow(row.formula, diff, rel, x, y, row.note)


@in_sample_order
def point_report(
    field: CoefficientField, oneform: OneFormField, x, y, jets=None
) -> DiscrepancyReport:
    """Every residual row at a single sample, or per sample of a stack (N, n).

    One derivative pass of (A, beta), `jets` if given, serves every row.
    Raises NonFiniteResult when a row that is defined at this order is not
    finite: a NaN row would otherwise win or lose the per-formula maximum
    depending on sample order.
    """
    k = kropina.kropina_point(field, oneform, x, y, jets)
    s = spray.pq_split(k)
    rows = [_row(row, k, s) for row in ROWS]
    check_finite(
        [(f"{row.formula} residual", v) for row in rows if row.max_abs is not None
         for v in (row.max_abs, row.max_rel)], k.base.x, k.base.y,
    )
    return DiscrepancyReport(rows, k.aux.degenerate_order4, [B2_NOTE])


def reduce_report(report: DiscrepancyReport) -> DiscrepancyReport:
    """Per-formula maxima of a report on a stack (N, n), each with its point.

    Rows that are undefined (None) stay as they are; np.argmax keeps the
    earliest sample of a tie.
    """
    rows = []
    for row in report.rows:
        if row.max_abs is None:
            rows.append(row)
            continue
        i = int(np.argmax(row.max_abs))
        rows.append(ResidualRow(
            row.formula, float(row.max_abs[i]), float(row.max_rel[i]),
            tuple(row.x[i].tolist()), tuple(row.y[i].tolist()), row.note,
        ))
    return replace(report, rows=rows)
