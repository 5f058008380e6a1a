"""Aggregated adjudication: closed-form residual rows over sampled points.

Combines the transformed-metric rows with the spray-split rows into one
discrepancy report.  All accepted samples are evaluated at once, as one stack
(N, n) with one derivative pass; the rows hold one value per sample, each
guarded finite by `errors.check_finite`, until reduce_report takes the
per-formula maxima.  Every row is a measurement; the only formula expected
to be tight is the supporting covector, and that expectation is asserted by
the test suite, not here.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import calculus, kropina, spray
from .errors import check_finite, in_sample_order
from .fields import CoefficientField, OneFormField
from .kropina import DiscrepancyReport, ResidualRow
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


def _rows(field, oneform, m: int, x, y) -> DiscrepancyReport:
    jets = calculus.field_jets(field, oneform, x, y)
    point = kropina.kropina_point(field, oneform, m, x, y, jets)
    rep = kropina.verify_kropina_forms(point)
    rep.rows.extend(_spray_rows(
        spray.pq_decomposition(field, oneform, m, x, y, jets, point.base), x, y
    ))
    check_finite(
        [(row.formula, v) for row in rep.rows if row.max_abs is not None
         for v in (row.max_abs, row.max_rel)], x, y,
    )
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


def discrepancy_report(
    field: CoefficientField, oneform: OneFormField, m: int, samples,
) -> DiscrepancyReport:
    """Closed-form adjudication over accepted (x, y) samples, per-formula maxima."""
    if not samples:
        return DiscrepancyReport(rows=[], points=0)
    return reduce_report(point_report(field, oneform, m, *stack(samples)))
