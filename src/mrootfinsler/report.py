"""Aggregated adjudication: closed-form residual rows over sampled points.

Combines the per-point transformed-metric rows with the spray-split rows into
one discrepancy report.  Every row is a measurement; the only formula expected
to be tight is the supporting covector, and that expectation is asserted by
the test suite, not here.
"""

from __future__ import annotations

import math

import numpy as np

from . import kropina, spray
from .errors import NonFiniteResult
from .fields import CoefficientField, OneFormField
from .kropina import DiscrepancyReport, ResidualRow, merge_reports

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


def _spray_report(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> DiscrepancyReport:
    point = spray.pq_decomposition(field, oneform, m, x, y)
    defects = spray.split_defect(point, y)
    scale = 1.0 + float(np.max(np.abs(point.D)))
    rows = []
    for key, formula in SPRAY_ROWS:
        value = defects[key]
        if point.degenerate_order4:
            rows.append(
                ResidualRow(formula, None, None, note="degenerate at m = 4")
            )
        else:
            rows.append(
                ResidualRow(
                    formula, value, value / scale,
                    tuple(np.asarray(x, float).tolist()),
                    tuple(np.asarray(y, float).tolist()),
                    SPRAY_NOTES[formula],
                )
            )
    return DiscrepancyReport(
        rows=rows, points=1, degenerate_order4=point.degenerate_order4
    )


def point_report(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> DiscrepancyReport:
    """Every residual row at a single sample.

    Raises NonFiniteResult when a row that is defined at this order is not
    finite: a NaN row would otherwise win or lose the per-formula maximum
    depending on sample order.
    """
    point = kropina.kropina_point(field, oneform, m, x, y)
    rep = kropina.verify_kropina_forms(point)
    rep.rows.extend(_spray_report(field, oneform, m, x, y).rows)
    for row in rep.rows:
        if row.max_abs is not None and not (
            math.isfinite(row.max_abs) and math.isfinite(row.max_rel)
        ):
            raise NonFiniteResult(
                f"{row.formula} residual is not finite at x={list(row.x)}, y={list(row.y)}"
            )
    return rep


def discrepancy_report(
    field: CoefficientField, oneform: OneFormField, m: int, samples,
) -> DiscrepancyReport:
    """Closed-form adjudication over accepted samples, per-formula maxima."""
    return merge_reports(point_report(field, oneform, m, x, y) for x, y in samples)
