"""Command-line front end: eval, verify, check, geodesic.

Exit codes: 0 evaluation ok / verdict pass, 1 verdict fail, 2 input or spec
error, 3 numerical failure (singularity, domain exhaustion).  Identical
invocations (spec bytes, flags, seed) produce byte-identical output; the seed
defaults to the FINSLER_SEED environment variable, with the flag winning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__, calculus, flatness, kropina, report, sampling, spray
from .errors import (
    DegenerateOrderFour,
    DimensionMismatch,
    DomainError,
    FinslerError,
    IndexOutOfRange,
    NonFiniteResult,
    OrderOutOfRange,
    ParseError,
    SingularMatrix,
    ValidationError,
    in_sample_order,
)
from .specfile import MetricSpecDocument, load_spec

INPUT_ERRORS = (ParseError, ValidationError, DimensionMismatch, IndexOutOfRange, OrderOutOfRange)
NUMERIC_ERRORS = (DomainError, NonFiniteResult, SingularMatrix, DegenerateOrderFour)


def _fmt(value) -> str:
    return f"{value:.17g}"


def _csv_floats(text: str, n: int, what: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{what}: expected comma-separated numbers") from exc
    if len(values) != n:
        raise ValidationError(f"{what}: expected {n} values, got {len(values)}")
    return np.array(values)


def _box(text: str, what: str):
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{what}: expected LO,HI") from exc
    if not lo < hi:
        raise ValidationError(f"{what}: need LO < HI")
    return (lo, hi)


def _count(text: str, what: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ValidationError(f"{what}: expected an integer, got {text!r}") from exc
    if value < low:
        raise ValidationError(f"{what}: expected an integer >= {low}, got {value}")
    return value


def _real(text: str, what: str, nonnegative: bool = False) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(f"{what}: expected a number, got {text!r}") from exc
    if not math.isfinite(value) or (nonnegative and value < 0):
        kind = "a finite number >= 0" if nonnegative else "a finite number"
        raise ValidationError(f"{what}: expected {kind}, got {text!r}")
    return value


def _finite_or_none(value):
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def _matrix(value):
    return [[_finite_or_none(v) for v in row] for row in np.asarray(value)]


def _vector(value):
    return [_finite_or_none(v) for v in np.asarray(value)]


def _require_oneform(doc: MetricSpecDocument):
    if doc.oneform is None:
        raise ValidationError("spec has no one_form: transformed metric unavailable")
    return doc.oneform


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FINSLER_SEED")
    if env is not None:
        return _count(env, "FINSLER_SEED", 0)
    return 0


def _envelope(command: str, doc: MetricSpecDocument, argv) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "spec_name": doc.name,
        "spec_sha256": doc.sha256,
        "dimension": doc.n,
        "order": doc.m,
    }


def _emit(payload: dict, out=None):
    """Write the JSON document to `out`, by default the sys.stdout of the moment."""
    (sys.stdout if out is None else out).write(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _aux_dict(aux: kropina.AuxScalars) -> dict:
    return {
        "tau": _finite_or_none(aux.tau),
        "b2": _finite_or_none(aux.b2),
        "w": _finite_or_none(aux.w),
        "c2": _finite_or_none(aux.c2),
        "v": _finite_or_none(aux.v),
        "delta": _finite_or_none(aux.delta),
        "q": _finite_or_none(aux.q),
        "d2": _finite_or_none(aux.d2),
        "p0": _finite_or_none(aux.p0),
        "p1": _finite_or_none(aux.p1),
        "p2": _finite_or_none(aux.p2),
        "p3": _finite_or_none(aux.p3),
        "degenerate_order4": aux.degenerate_order4,
    }


def cmd_eval(args, argv) -> int:
    doc = load_spec(args.spec)
    oneform = _require_oneform(doc)
    x = _csv_floats(args.x, doc.n, "--x")
    y = _csv_floats(args.y, doc.n, "--y")

    jets = calculus.field_jets(doc.field, oneform, x, y)
    point = kropina.kropina_point(doc.field, oneform, doc.m, x, y, jets)
    base = point.base
    g_oracle = 0.5 * calculus.base_energy(doc.field, doc.m).compose(*jets).hess_yy

    if args.json:
        payload = _envelope("eval", doc, argv)
        payload.update({
            "x": _vector(x), "y": _vector(y),
            "A": base.A, "F": base.F, "l": _vector(base.l),
            "g_oracle": _matrix(g_oracle),
            "beta": point.beta, "Fbar": point.Fbar, "lbar": _vector(point.lbar),
            "gbar_oracle": _matrix(point.gbar_oracle),
            "aux": _aux_dict(point.aux),
        })
        _emit(payload)
        return 0

    w = sys.stdout.write
    w(f"point evaluation ({doc.name or args.spec})\n")
    w(f"spec sha256: {doc.sha256}\n")
    w(f"x = [{', '.join(_fmt(v) for v in x)}]\n")
    w(f"y = [{', '.join(_fmt(v) for v in y)}]\n")
    w(f"base metric (n = {doc.n}, m = {doc.m}):\n")
    if base.order_flag:
        w(f"  note: {base.order_flag}\n")
    w(f"  A    = {_fmt(base.A)}\n")
    w(f"  F    = {_fmt(base.F)}\n")
    w(f"  l    = [{', '.join(_fmt(v) for v in base.l)}]\n")
    w("  g (half y-hessian of F^2):\n")
    for row in g_oracle:
        w(f"    [{', '.join(_fmt(v) for v in row)}]\n")
    w("transformed metric (F^2/beta):\n")
    w(f"  beta = {_fmt(point.beta)}\n")
    w(f"  Fbar = {_fmt(point.Fbar)}\n")
    w(f"  lbar = [{', '.join(_fmt(v) for v in point.lbar)}]\n")
    w("  gbar (half y-hessian of Fbar^2):\n")
    for row in point.gbar_oracle:
        w(f"    [{', '.join(_fmt(v) for v in row)}]\n")
    w("aux scalars:\n")
    for key, value in _aux_dict(point.aux).items():
        if key == "degenerate_order4":
            continue
        text = _fmt(value) if value is not None else "undefined (order-4 degeneracy)"
        w(f"  {key:5s} = {text}\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _rows_payload(rows):
    payload = []
    for row in rows:
        payload.append({
            "formula": row.formula,
            "max_abs": _finite_or_none(row.max_abs),
            "max_rel": _finite_or_none(row.max_rel),
            "x": list(row.x) if row.x is not None else None,
            "y": list(row.y) if row.y is not None else None,
            "note": row.note,
        })
    return payload


def _records_payload(accepted, rows):
    """The rows of every sample, from per-sample rows over the stack of accepted samples."""
    columns = [
        (row.formula, None, None, row.note) if row.max_abs is None
        else (row.formula, row.max_abs.tolist(), row.max_rel.tolist(), row.note)
        for row in rows
    ]
    records = []
    for i, (x, y) in enumerate(accepted):
        x, y = _vector(x), _vector(y)
        records.append({"x": x, "y": y, "rows": [
            {
                "formula": formula,
                "max_abs": None if max_abs is None else _finite_or_none(max_abs[i]),
                "max_rel": None if max_rel is None else _finite_or_none(max_rel[i]),
                "x": None if max_abs is None else x,
                "y": None if max_abs is None else y,
                "note": note,
            }
            for formula, max_abs, max_rel, note in columns
        ]})
    return records


def _rejected_payload(rejected):
    return [
        {"x": _vector(x), "y": _vector(y), "reason": reason}
        for x, y, reason in rejected
    ]


def cmd_verify(args, argv) -> int:
    doc = load_spec(args.spec)
    oneform = _require_oneform(doc)
    seed = _seed(args)
    samples = sampling.sample_points(
        doc.n, args.samples, seed,
        x_box=args.box, y_box=args.ybox,
        domain_check=calculus.domain_check(doc.field, doc.oneform),
    )
    if not samples.accepted:
        raise DomainError("no admissible samples in the requested box")

    per_sample = report.point_report(
        doc.field, oneform, doc.m, *sampling.stack(samples.accepted)
    )
    merged = kropina.merge_reports([per_sample])

    if args.json:
        payload = _envelope("verify", doc, argv)
        payload.update({
            "seed": seed,
            "samples_requested": args.samples,
            "samples_accepted": len(samples.accepted),
            "rejected": _rejected_payload(samples.rejected),
            "degenerate_order4": merged.degenerate_order4,
            "notes": merged.notes,
            "rows": _rows_payload(merged.rows),
            "records": _records_payload(samples.accepted, per_sample.rows),
        })
        _emit(payload)
        return 0

    w = sys.stdout.write
    w(f"discrepancy report ({doc.name or args.spec})\n")
    w(f"spec sha256: {doc.sha256}\n")
    w(f"seed: {seed}  samples: {len(samples.accepted)} accepted / {args.samples} requested\n")
    for note in merged.notes:
        w(f"note: {note}\n")
    if merged.degenerate_order4:
        w("note: order m = 4 flagged: closed-form scalar family degenerate\n")
    if samples.rejected:
        w(f"rejected samples ({len(samples.rejected)}):\n")
        for x, y, reason in samples.rejected:
            w(f"  x=[{', '.join(_fmt(v) for v in x)}] y=[{', '.join(_fmt(v) for v in y)}]: {reason}\n")
    w(f"{'formula':28s} {'max|res|':>13s} {'max rel':>13s}  at point\n")
    for row in merged.rows:
        if row.max_abs is None:
            w(f"{row.formula:28s} {'degenerate':>13s} {'(m = 4)':>13s}\n")
        else:
            loc = f"x=[{', '.join(f'{v:.4g}' for v in row.x)}] y=[{', '.join(f'{v:.4g}' for v in row.y)}]"
            w(f"{row.formula:28s} {row.max_abs:13.6e} {row.max_rel:13.6e}  {loc}\n")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args, argv) -> int:
    doc = load_spec(args.spec)
    oneform = _require_oneform(doc)
    seed = _seed(args)
    samples = sampling.sample_points(
        doc.n, args.samples, seed,
        x_box=args.box, y_box=args.ybox,
        domain_check=calculus.domain_check(doc.field, doc.oneform),
    )

    if args.kind == "proj-related":
        residuals = []
        if samples.accepted:
            residuals = in_sample_order(
                partial(spray.projective_residual, doc.field, oneform, doc.m),
                *sampling.stack(samples.accepted),
            ).tolist()
        max_residual = max(residuals, default=float("nan"))
        if len(samples.accepted) < flatness.MIN_VERDICT_SAMPLES:
            verdict = "inconclusive"
        elif max_residual <= args.tol:
            verdict = "related-within-tol"
        else:
            verdict = "not-related"
        payload_extra = {
            "kind": "proj-related",
            "max_wedge_residual": _finite_or_none(max_residual),
            "verdict": verdict,
            "records": [
                {"x": _vector(x), "y": _vector(y), "residual": r}
                for (x, y), r in zip(samples.accepted, residuals)
            ],
        }
        human = [
            f"projective relatedness check ({doc.name or args.spec})",
            f"spec sha256: {doc.sha256}",
            f"seed: {seed}  samples: {len(samples.accepted)} accepted / {args.samples} requested",
            f"max wedge residual: {_fmt(max_residual)}",
            f"tolerance: {_fmt(args.tol)}",
            f"verdict: {verdict}",
        ]
        passed = verdict == "related-within-tol"
    else:
        kind = "dually-flat" if args.kind == "dually-flat" else "projectively-flat"
        rep = flatness.flatness_report(
            doc.field, oneform, doc.m, kind, samples.accepted,
            tol=args.tol, rejected=len(samples.rejected),
        )
        payload_extra = {
            "kind": rep.kind,
            "points": rep.points,
            "max_residual": _finite_or_none(rep.max_residual),
            "max_closed_residual": _finite_or_none(rep.max_closed_residual),
            "tol": rep.tol,
            "verdict": rep.verdict,
        }
        human = [
            f"{rep.kind} check ({doc.name or args.spec})",
            f"spec sha256: {doc.sha256}",
            f"seed: {seed}  samples: {rep.points} accepted / {args.samples} requested",
            f"max operational residual: {_fmt(rep.max_residual)}",
            f"max closed-form residual: {_fmt(rep.max_closed_residual)} (informative)",
            f"tolerance: {_fmt(rep.tol)}",
            f"verdict: {rep.verdict}",
        ]
        verdict = rep.verdict
        passed = verdict == "flat-within-tol"

    if args.json:
        payload = _envelope("check", doc, argv)
        payload.update({
            "seed": seed,
            "samples_requested": args.samples,
            "samples_accepted": len(samples.accepted),
            "rejected": _rejected_payload(samples.rejected),
        })
        payload.update(payload_extra)
        _emit(payload)
    else:
        w = sys.stdout.write
        for line in human:
            w(line + "\n")
        if samples.rejected:
            w(f"rejected samples ({len(samples.rejected)}):\n")
            for x, y, reason in samples.rejected:
                w(f"  x=[{', '.join(_fmt(v) for v in x)}] y=[{', '.join(_fmt(v) for v in y)}]: {reason}\n")

    if verdict == "inconclusive":
        raise DomainError(
            f"only {len(samples.accepted)} admissible samples "
            f"(minimum {flatness.MIN_VERDICT_SAMPLES} for a verdict)"
        )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def cmd_geodesic(args, argv) -> int:
    doc = load_spec(args.spec)
    x0 = _csv_floats(args.x0, doc.n, "--x0")
    y0 = _csv_floats(args.y0, doc.n, "--y0")
    if args.metric == "kropina":
        oneform = _require_oneform(doc)
        energy = calculus.kropina_energy(doc.field, oneform, doc.m)
    else:
        energy = calculus.base_energy(doc.field, doc.m)

    path = spray.integrate_geodesic(
        energy, x0, y0, args.t, args.steps, metric=args.metric
    )
    write_path_file(args.out, path, doc.n)
    message = (
        f"wrote {len(path.samples)} states to {args.out}"
        + (" (truncated: domain exhausted)" if path.truncated else "")
    )
    if args.json:
        payload = _envelope("geodesic", doc, argv)
        payload.update({
            "metric": args.metric,
            "steps": args.steps,
            "t_end": args.t,
            "states_written": len(path.samples),
            "truncated": path.truncated,
            "out": args.out,
        })
        _emit(payload)
    else:
        sys.stdout.write(message + "\n")
    if path.truncated:
        raise DomainError(f"geodesic truncated: {path.reason}")
    return 0


def write_path_file(path_name: str, path: spray.GeodesicPath, n: int) -> None:
    """Line-oriented numeric text: header then t, x..., v... rows."""
    with open(path_name, "w") as handle:
        cols = " ".join([f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)])
        handle.write(f"# t {cols}\n")
        if path.truncated:
            handle.write(f"# truncated: {path.reason}\n")
        for t, x, v in path.samples:
            row = [t] + list(x) + list(v)
            handle.write(" ".join(_fmt(value) for value in row) + "\n")


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrootfinsler",
        description="numeric tensor calculus for m-th root metrics and their "
                    "Kropina change",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sampled: bool):
        p.add_argument("--spec", required=True, help="metric-spec JSON document")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if sampled:
            p.add_argument("--samples", type=lambda s: _count(s, "--samples", 1),
                           default=100)
            p.add_argument("--seed", type=lambda s: _count(s, "--seed", 0), default=None,
                           help="overrides FINSLER_SEED (default 0)")
            p.add_argument("--box", type=lambda s: _box(s, "--box"),
                           default=sampling.DEFAULT_X_BOX, help="x sampling box LO,HI")
            p.add_argument("--ybox", type=lambda s: _box(s, "--ybox"),
                           default=sampling.DEFAULT_Y_BOX, help="y sampling box LO,HI")

    p_eval = sub.add_parser("eval", help="evaluate every quantity at one point")
    add_common(p_eval, sampled=False)
    p_eval.add_argument("--x", required=True, help="comma-separated point")
    p_eval.add_argument("--y", required=True, help="comma-separated direction")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="closed forms vs oracle over samples")
    add_common(p_verify, sampled=True)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check", help="condition verdicts from operational residuals")
    p_check.add_argument("kind", choices=("dually-flat", "proj-flat", "proj-related"))
    add_common(p_check, sampled=True)
    p_check.add_argument("--tol", type=lambda s: _real(s, "--tol", nonnegative=True),
                         default=flatness.DEFAULT_TOL)
    p_check.set_defaults(func=cmd_check)

    p_geo = sub.add_parser("geodesic", help="integrate and write a geodesic path")
    add_common(p_geo, sampled=False)
    p_geo.add_argument("--metric", choices=("base", "kropina"), default="base")
    p_geo.add_argument("--x0", required=True)
    p_geo.add_argument("--y0", required=True)
    p_geo.add_argument("--t", type=lambda s: _real(s, "--t"), required=True)
    p_geo.add_argument("--steps", type=lambda s: _count(s, "--steps", 1), required=True)
    p_geo.add_argument("--out", required=True)
    p_geo.set_defaults(func=cmd_geodesic)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # the type hooks raise ValidationError, which argparse lets through
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except FinslerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
