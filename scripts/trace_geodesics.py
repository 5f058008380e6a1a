#!/usr/bin/env python3
"""Trace base and transformed geodesics on the position-dependent cubic fixture.

Writes path files and prints the RK4 self-convergence table (endpoint error
against a reference run with h/16, which should shrink ~16x per halving).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mrootfinsler import calculus
from mrootfinsler.cli import write_path_file
from mrootfinsler.spray import integrate_geodesic
from mrootfinsler.specfile import load_spec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=str(FIXTURES / "cubic_x.json"))
    parser.add_argument("--t", type=float, default=0.5)
    parser.add_argument("--outdir", default="geodesic_out")
    args = parser.parse_args()

    doc = load_spec(args.spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    x0, y0 = [0.0] * doc.n, [1.0] + [0.5] * (doc.n - 1)

    energies = {"base": calculus.base_energy(doc.field, doc.m)}
    if doc.oneform is not None:
        energies["kropina"] = calculus.kropina_energy(doc.field, doc.oneform, doc.m)

    for tag, energy in energies.items():
        path = integrate_geodesic(energy, x0, y0, args.t, 200)
        out = outdir / f"{doc.name or 'metric'}_{tag}.txt"
        write_path_file(str(out), path, doc.n)
        end = path.samples[-1][1]
        print(f"{tag:8s} endpoint at t={args.t}: {np.array2string(end, precision=8)}"
              f"  ({len(path.samples)} states -> {out})")

        ref = integrate_geodesic(energy, x0, y0, args.t, 1024).samples[-1][1]
        print(f"{tag:8s} RK4 self-convergence:")
        prev = None
        for steps in (32, 64, 128):
            err = float(np.linalg.norm(
                integrate_geodesic(energy, x0, y0, args.t, steps).samples[-1][1] - ref
            ))
            note = f"  ratio {prev / err:6.2f}" if prev else ""
            print(f"   steps {steps:4d}: endpoint err {err:10.3e}{note}")
            prev = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
