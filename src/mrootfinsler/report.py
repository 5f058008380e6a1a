"""Aggregated adjudication: closed-form residual rows over sampled points.

Combines the transformed-metric rows with the spray-split rows into one
discrepancy report.  All accepted samples are evaluated at once, as one stack
(N, n) with one derivative pass; the rows hold one value per sample until
merge_reports reduces them.  Every row is a measurement; the only formula expected
to be tight is the supporting covector, and that expectation is asserted by
the test suite, not here.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import calculus, kropina, spray
from .errors import NonFiniteResult, in_sample_order, raise_first
from .fields import CoefficientField, OneFormField
from .kropina import DiscrepancyReport, ResidualRow, merge_reports
from .sampling import stack

SPRAY_ROWS = (
    ("split_defect", "spray_split"),
    ("split_defect_alt", "spray_split_alt"),
    ("tangential_defect", "spray_tangential"),
    ("tangential_defect_alt", "spray_tangential_alt"),
    ("balance_defect", "relatedness_balance"),
)

SPRAY_NOTES = {
    "spray_split": "max |D - (P y + Q)|, printed scalar reading",
    "spray_split_alt": "max |D - (P y + Q)|, alternative scalar reading",
    "spray_tangential": "y-orthogonal parts of D and Q compared",
    "spray_tangential_alt": "same with the alternative scalar reading",
    "relatedness_balance": "printed relatedness condition, |lead - inverse part|",
}


def _spray_rows(point: spray.SprayPoint, x, y) -> list:
    """The split rows of a SprayPoint, per sample of its stack."""
    if point.degenerate_order4:
        return [
            ResidualRow(formula, None, None, note="degenerate at m = 4")
            for _, formula in SPRAY_ROWS
        ]
    defects = spray.split_defect(point, y)
    scale = 1.0 + np.max(np.abs(point.D), axis=-1)
    return [
        ResidualRow(formula, defects[key], defects[key] / scale, x, y, SPRAY_NOTES[formula])
        for key, formula in SPRAY_ROWS
    ]


def _check_finite(rows, x, y) -> None:
    """NonFiniteResult at the first sample with a defined row that is not finite, naming the row."""
    defined = [row for row in rows if row.max_abs is not None]
    bad = np.array([~(np.isfinite(row.max_abs) & np.isfinite(row.max_rel)) for row in defined])
    if bad.any():
        first = bad.reshape(len(defined), -1).argmax(axis=0)
        n = np.shape(x)[-1]
        raise_first(
            bad.any(axis=0), NonFiniteResult, "{} residual is not finite at x={}, y={}",
            [defined[r].formula for r in first],
            np.reshape(x, (-1, n)).tolist(), np.reshape(y, (-1, n)).tolist(),
        )


def _rows(field, oneform, m: int, x, y) -> DiscrepancyReport:
    jets = calculus.field_jets(field, oneform, x, y)
    point = kropina.kropina_point(field, oneform, m, x, y, jets)
    rep = kropina.verify_kropina_forms(point)
    rep.rows.extend(_spray_rows(
        spray.pq_decomposition(field, oneform, m, x, y, jets, point.base), x, y
    ))
    _check_finite(rep.rows, x, y)
    return rep


def point_report(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> DiscrepancyReport:
    """Every residual row at a single sample, or per sample of a stack (N, n).

    One derivative pass serves every row.  Raises NonFiniteResult when a row
    that is defined at this order is not finite: a NaN row would otherwise
    win or lose the per-formula maximum depending on sample order.  On a
    stack, the failure raised is the one a loop over the samples would meet
    first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return in_sample_order(partial(_rows, field, oneform, m), x, y)


def discrepancy_report(
    field: CoefficientField, oneform: OneFormField, m: int, samples,
) -> DiscrepancyReport:
    """Closed-form adjudication over accepted (x, y) samples, per-formula maxima."""
    if not samples:
        return merge_reports([])
    return merge_reports([point_report(field, oneform, m, *stack(samples))])
