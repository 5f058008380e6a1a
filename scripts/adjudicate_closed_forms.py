#!/usr/bin/env python3
"""Adjudicate every closed form against the differentiation oracle.

Evaluates every `verify` row over the accepted samples of each shipped
fixture, stacked as `verify` stacks them and off the sampler's pass, and
prints per-formula maxima.  The
supporting covector row is expected near rounding; the other closed forms
carry the print inconsistencies this package exists to measure.
"""

import argparse
import sys
from pathlib import Path

from mrootfinsler import calculus, sampling
from mrootfinsler.report import point_report, reduce_report
from mrootfinsler.specfile import load_spec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEFAULT_SPECS = [
    "diag_quartic.json",
    "berwald_moore.json",
    "cubic_x.json",
    "cubic_x_bx.json",
    "mixed_quartic.json",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name in DEFAULT_SPECS:
        doc = load_spec(FIXTURES / name)
        samples = sampling.sample_points(
            doc.n, args.samples, args.seed,
            domain_check=calculus.domain_check(doc.field, doc.oneform),
        )
        print(f"== {doc.name} (n={doc.n}, m={doc.m}), "
              f"{len(samples.x)} points, {len(samples.rejected)} rejected")
        if not len(samples.x):
            print()
            continue
        rep = reduce_report(point_report(doc.field, doc.oneform, doc.m,
                                         samples.x, samples.y, samples.jets))
        if rep.degenerate_order4:
            print("   order-4 degeneracy: closed-form scalar family undefined")
        for row in rep.rows:
            if row.max_abs is None:
                print(f"   {row.formula:28s} degenerate (m = 4)")
            else:
                print(f"   {row.formula:28s} max|res| = {row.max_abs:12.6e}   "
                      f"rel = {row.max_rel:12.6e}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
