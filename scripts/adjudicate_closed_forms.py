#!/usr/bin/env python3
"""Adjudicate every closed form against the differentiation oracle: the
`verify` report of each shipped fixture (fixtures/*.json in sorted order, each
with a one-form), one after another.
The supporting covector row is expected near rounding; the other closed forms
carry the print inconsistencies this package exists to measure.  Exits with
the largest exit code of the runs."""

import argparse
import sys
from pathlib import Path

from mrootfinsler import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", default="100")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()
    return max(cli.main(["verify", "--spec", str(spec), "--samples", args.samples, "--seed", args.seed])
               for spec in sorted(FIXTURES.glob("*.json")))


if __name__ == "__main__":
    sys.exit(main())
