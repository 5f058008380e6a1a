"""Every residual row of `verify`: one table of formulas, one residual function.

`ROWS` lists the printed closed forms in the order `verify` reports them.
Each entry gives the closed form, the oracle quantity it is measured
against, the scale of its relative residual, its note, and whether it needs
the auxiliary scalar family, which divides by m - 4.  This module is where
order four is decided: at m = 4 `point_report` makes those rows undefined
(None, `null` in JSON) without evaluating them, and does not split the
spray.  One Kropina snapshot (`kropina.kropina_point`) and the spray split
read off it alone (`spray.pq_split`, which also holds the printed inverses)
serve every row: the rows that need the scalar family read the split.

`point_report(field, oneform, x, y, jets=None)` reads the order m off the
field.  All accepted samples are evaluated at once, as one stack (N, n) with
one derivative pass (the sampler's, in `verify`), as one stack evaluation
(errors.in_sample_order); it returns the rows, each holding one value per
sample, guarded finite by `errors.check_finite`.  `worst_samples` names,
per row, the sample of its maximum.
Every row is a measurement; the only formula expected to be tight is the
supporting covector, and that expectation is asserted by the test suite, not
here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
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
    """Residual of one closed form against its oracle quantity.

    On a stack of samples max_abs and max_rel hold one value per sample;
    both are None where the row is undefined.
    """

    formula: str
    max_abs: Optional[np.ndarray]
    max_rel: Optional[np.ndarray]
    note: str = ""


# One formula of `verify`: closed(k, s) against oracle(k, s), with k the Kropina
# snapshot and s the spray split of the same samples (None at m = 4, where only
# rows that do not read it are evaluated).  The relative residual divides by
# 1 + max |scale(k, s)|, the oracle quantity when scale is None.  An aux row
# needs the scalar family, so it is undefined at m = 4.  (A named tuple:
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
    Row("gbar_inv_closed", lambda k, s: s.gbar_inv_closed, lambda k, s: k.gbar_inv_numeric,
        aux=True),
    Row("gbar_inv_split", lambda k, s: s.gbar_inv_split, lambda k, s: k.gbar_inv_numeric,
        aux=True),
    Row("gbar_inv_closed_identity", lambda k, s: s.gbar_inv_closed @ k.gbar_oracle, _identity,
        note="closed inverse times oracle tensor vs identity", aux=True),
    Row("gbar_inv_split_identity", lambda k, s: s.gbar_inv_split @ k.gbar_oracle, _identity,
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


def _row(row: Row, k: kropina.KropinaPoint, s: Optional[spray.SprayPoint]) -> ResidualRow:
    """One row per sample: max |closed - oracle| over the trailing axes, and
    that over 1 + max |scale|."""
    y = k.base.y
    closed, oracle = row.closed(k, s), row.oracle(k, s)
    scale = oracle if row.scale is None else row.scale(k, s)
    axes = tuple(range(y.ndim - 1 - closed.ndim, 0))
    diff = np.max(np.abs(closed - oracle), axis=axes)
    rel = diff / (1.0 + np.max(np.abs(scale), axis=axes))
    return ResidualRow(row.formula, diff, rel, row.note)


@in_sample_order
def point_report(
    field: CoefficientField, oneform: OneFormField, x, y, jets=None
) -> list:
    """Every residual row at a single sample, or per sample of a stack (N, n).

    One derivative pass of (A, beta), `jets` if given, serves every row.  At
    m = 4 the rows that need the scalar family are undefined, and the spray
    is not split.  Raises NonFiniteResult when a defined row is not finite:
    a NaN row would otherwise win or lose the per-formula maximum depending
    on sample order.
    """
    k = kropina.kropina_point(field, oneform, x, y, jets)
    degenerate = field.m == 4
    s = None if degenerate else spray.pq_split(k)
    rows = [ResidualRow(row.formula, None, None, DEGENERATE_NOTE) if row.aux and degenerate
            else _row(row, k, s) for row in ROWS]
    check_finite(
        [(f"{row.formula} residual", v) for row in rows if row.max_abs is not None
         for v in (row.max_abs, row.max_rel)], k.base.x, k.base.y,
    )
    return rows


def worst_samples(rows) -> list:
    """Per row of a report on a stack (N, n), the sample of its largest
    max_abs, None where the row is undefined; np.argmax keeps the earliest
    sample of a tie."""
    return [None if row.max_abs is None else int(np.argmax(row.max_abs)) for row in rows]
