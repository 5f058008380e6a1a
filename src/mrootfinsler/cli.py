"""Command-line front end: eval, verify, check, geodesic.

Exit codes: 0 evaluation ok / verdict pass, 1 verdict fail, 2 input or spec
error or an output that cannot be written (a path file, or a stdout whose
reader has gone), 3 numerical failure (singularity, domain exhaustion).
Identical invocations (spec bytes, flags, seed) produce byte-identical
output; the seed defaults to the FINSLER_SEED environment variable, with the
flag winning.

A process that calls `main` more than once does its set-up once: the argument
parser is built on the first call, and the documents parsed from the last
SPEC_CACHE_SIZE distinct spec contents are kept, keyed by the file's exact
bytes and its path.  Every call reads the spec file again, so a file edited
between calls is parsed again; a spec that fails to parse is never kept.

Every --json document goes through one writer (`_emit`): the text of
json.dumps(payload, sort_keys=True, indent=2) and a newline, laid out by
json.dumps itself.  The parts whose text is fixed by their shape (the
reduced rows and the records of `verify`, the records of `check
proj-related`) are laid out by json.dumps once per process as templates
(`_template` finds their slots): the fixed text between the numbers and the
index of the number each slot reads.  They are keyed by everything their
text depends on (n, each row's formula, note and whether it is null, the
indent level); the last LAYOUT_CACHE_SIZE are kept.  Each document's numbers
are formatted in one pass, and each section is filled by one index gather
and one str.join per chunk of records, about EMIT_CHUNK_TEXT characters of
template text: one write per chunk, never the whole document at once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import cache, lru_cache, partial
from itertools import count, islice
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, calculus, flatness, kropina, report, sampling, spray
from .errors import (
    NUMERIC_ERRORS,
    DomainError,
    FinslerError,
    RiemannianOrderWarning,
    ValidationError,
    check_finite,
)
from .metric import ORDER2_NOTICE
from .specfile import MetricSpecDocument, _read, parse_spec


def _fmt(value) -> str:
    return f"{value:.17g}"


def _csv_floats(text: str, n: int, what: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{what}: expected comma-separated numbers") from exc
    if len(values) != n:
        raise ValidationError(f"{what}: expected {n} values, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{what}: every value must be finite")
    return np.array(values)


def _box(text: str, what: str):
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{what}: expected LO,HI") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{what}: every value must be finite")
    if not lo < hi:
        raise ValidationError(f"{what}: need LO < HI")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"{what}: HI - LO is not finite")
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
    value = float(value)
    return value if math.isfinite(value) else None


# Distinct spec contents whose parsed documents one process keeps.
SPEC_CACHE_SIZE = 8


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _parse(data: bytes, source: str) -> MetricSpecDocument:
    """parse_spec, once per spec content (and path, which error messages name).
    A document that failed to parse is not kept: its error is raised every time."""
    return parse_spec(data, source)


def _load(path) -> MetricSpecDocument:
    """The spec file's document, parsed from the bytes read now, writing the
    order-2 warning to stderr as one fixed line."""
    doc = _parse(_read(path), str(path))
    if doc.m == 2:
        sys.stderr.write(f"warning: {ORDER2_NOTICE}\n")
    return doc


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


class _Section(NamedTuple):
    """A part of a --json document, laid out once per shape: a value of the
    top-level payload.  `shape(base, *key)` is its value with the integer
    base + i for the number of index i, and `key` holds everything its text
    depends on.  `numbers` holds the numbers the slots read, one entry per
    index.  Entries that are columns of N numbers make the section a list of
    N copies of the shape, one per column; numbers make it one copy."""

    shape: Callable
    key: tuple
    numbers: list


# Document shapes whose layout one process keeps: room for the verify rows,
# the verify record and the proj-related record of as many specs as the
# spec cache keeps.
LAYOUT_CACHE_SIZE = 3 * SPEC_CACHE_SIZE


# Template text that one write of records joins, about: 18 verify records of
# cubic_x_bx, or a whole proj-related document.  Measured on verify-bulk, a
# 100-record document (512 KB) joined at once is written as slowly as one
# record per write.
EMIT_CHUNK_TEXT = 1 << 16


class _Template(NamedTuple):
    """A section's text with its numbers left out: `pieces[k]` is the fixed
    text before slot k and `pieces[-1]` the text after the last, `reads[k]`
    the index of the number slot k reads (a number that fills several slots,
    such as a record's x in each row, is formatted once), and `per_chunk` the
    number of records one write joins."""

    pieces: np.ndarray
    reads: np.ndarray
    per_chunk: int


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _template(shape, key: tuple, level: int) -> _Template:
    """The shape laid out at indent `level`, once per shape and level: the
    text between its slots, one piece more than there are slots, and the
    number each slot reads.  The shape is laid out twice, slot i written as
    10**9 + i and then as 2 * 10**9 + i, so the two texts differ only at
    each slot's first digit, which no string in the shape can fake."""
    indent = "\n" + "  " * level
    first, second = (json.dumps(shape(base, *key), sort_keys=True, indent=2).replace("\n", indent)
                     for base in (10**9, 2 * 10**9))
    starts = np.flatnonzero(np.frombuffer(first.encode(), np.uint8)
                            != np.frombuffer(second.encode(), np.uint8)).tolist()
    pieces = [first[a:b] for a, b in zip([0] + [s + 10 for s in starts], starts + [len(first)])]
    reads = [int(first[s + 1:s + 10]) for s in starts]
    per_chunk = max(1, EMIT_CHUNK_TEXT // max(1, sum(map(len, pieces))))
    return _Template(np.array(pieces, dtype=object), np.array(reads, dtype=np.intp), per_chunk)


def _fill(write, template: _Template, texts: np.ndarray, start: int, size: int,
          count: int, sep: str = "") -> None:
    """Write `count` copies of the template, `sep` between them; copy i reads
    the texts from start + size * i on.  Each chunk of copies is one 2-D
    object array, the pieces in its even columns and the gathered texts in
    its odd ones, joined and written at once."""
    pieces, reads, per_chunk = template
    rows = np.empty((min(count, per_chunk), 2 * len(reads) + 1), dtype=object)
    rows[:, ::2] = pieces
    rows[:, -1] = pieces[-1] + sep
    for first in range(0, count, per_chunk):
        chunk = rows[:count - first]
        records = np.arange(first, first + len(chunk))
        chunk[:, 1::2] = texts[start + size * records[:, None] + reads]
        if first + len(chunk) == count:
            chunk[-1, -1] = pieces[-1]
        write("".join(chunk.ravel().tolist()))


def _emit(payload: dict, out=None):
    """Write the JSON document to `out`, by default the sys.stdout of the moment.

    The document is json.dumps(payload, sort_keys=True, indent=2) and a
    newline, byte for byte.  A _Section, a value of the top-level payload, is
    written from its template (`_template`), laid out on the first use of its
    shape and level in the process: the rest of the document is json.dumps
    of the payload with null for each section, cut at the section's line
    '\n  "<key>": null', which no string (they hold no raw newline) and no
    nested key (at an indent of 4 or more) can fake.  The numbers of every
    section are stacked and formatted in one pass, as json.dumps writes them
    and null for one that is not finite, into one object array, and every
    section is filled from it by `_fill`: a section of 2-D numbers (records,
    at indent 2) chunk by chunk, one of 1-D numbers (at indent 1) as one
    record.
    """
    out = sys.stdout if out is None else out
    keys = sorted(k for k, v in payload.items() if type(v) is _Section) if isinstance(payload, dict) else []
    rest = json.dumps({**payload, **dict.fromkeys(keys)} if keys else payload, sort_keys=True, indent=2)
    if not keys:
        out.write(rest + "\n")
        return
    pieces = []
    for key in keys:
        line = f"\n  {json.dumps(key)}: "
        head, rest = rest.split(line + "null", 1)
        pieces.append(head + line)
    pieces.append(rest)
    sections = [payload[key] for key in keys]
    stacks = [np.array(s.numbers, dtype=float) for s in sections]
    numbers = np.concatenate([stack.T.ravel() for stack in stacks])
    texts = np.array(list(map(float.__repr__, numbers.tolist())), dtype=object)
    texts[~np.isfinite(numbers)] = "null"
    out.write(pieces[0])
    start = 0
    for section, stack, piece in zip(sections, stacks, pieces[1:]):
        template = _template(section.shape, section.key, stack.ndim)
        if stack.ndim == 1:
            _fill(out.write, template, texts, start, len(stack), 1)
        elif stack.size:
            out.write("[\n    ")
            _fill(out.write, template, texts, start, len(stack), stack.shape[1], ",\n    ")
            out.write("\n  ]")
        else:
            out.write("[]")
        out.write(piece)
        start += stack.size
    out.write("\n")


def _sampled(args, argv):
    """The spec, its one-form, the sample set (accepted draws stacked with their
    pass, rejected draws) and the JSON envelope of a sampled command."""
    doc = _load(args.spec)
    oneform = _require_oneform(doc)
    seed = _seed(args)
    samples = sampling.sample_points(
        doc.n, args.samples, seed,
        x_box=args.box, y_box=args.ybox,
        domain_check=partial(calculus.field_jets, doc.field, doc.oneform),
    )
    payload = _envelope(args.command, doc, argv)
    payload.update({
        "seed": seed,
        "samples_requested": args.samples,
        "samples_accepted": len(samples.x),
        "rejected": [
            {"x": xr.tolist(), "y": yr.tolist(), "reason": reason}
            for xr, yr, reason in samples.rejected
        ],
    })
    return doc, oneform, samples, payload


def _write_header(w, title: str, doc, args, payload) -> None:
    w(f"{title} ({doc.name or args.spec})\n")
    w(f"spec sha256: {doc.sha256}\n")
    w(f"seed: {payload['seed']}  samples: {payload['samples_accepted']} accepted"
      f" / {args.samples} requested\n")


def _write_rejected(w, rejected) -> None:
    if rejected:
        w(f"rejected samples ({len(rejected)}):\n")
        for x, y, reason in rejected:
            w(f"  x=[{', '.join(_fmt(v) for v in x)}] y=[{', '.join(_fmt(v) for v in y)}]: {reason}\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _aux_dict(aux: kropina.AuxScalars) -> dict:
    return {k: v if isinstance(v, bool) else _finite_or_none(v) for k, v in vars(aux).items()}


def cmd_eval(args, argv) -> int:
    doc = _load(args.spec)
    oneform = _require_oneform(doc)
    x = _csv_floats(args.x, doc.n, "--x")
    y = _csv_floats(args.y, doc.n, "--y")

    # a reported value that is not finite is refused below
    point = kropina.kropina_point(doc.field, oneform, x, y)
    g_oracle = 0.5 * calculus.base_energy(doc.field, doc.m).compose(point.jets).hess_yy
    base = point.base
    reported = {"A": base.A, "F": base.F, "l": base.l, "g_oracle": g_oracle, "beta": point.beta,
                "Fbar": point.Fbar, "lbar": point.lbar, "gbar_oracle": point.gbar_oracle}
    # the flag is no value, and at m = 4 the scalars from delta on print as undefined
    skip = ("degenerate_order4",) + (kropina.ORDER4_UNDEFINED if point.aux.degenerate_order4 else ())
    aux = [(k, v) for k, v in vars(point.aux).items() if k not in skip]
    check_finite([(k, np.abs(v).max()) for k, v in [*reported.items(), *aux]], x, y)

    if args.json:
        payload = _envelope("eval", doc, argv)
        payload.update({k: np.asarray(v).tolist() for k, v in reported.items()})
        payload.update({"x": x.tolist(), "y": y.tolist(), "aux": _aux_dict(point.aux)})
        _emit(payload)
        return 0

    w = sys.stdout.write
    w(f"point evaluation ({doc.name or args.spec})\n")
    w(f"spec sha256: {doc.sha256}\n")
    w(f"x = [{', '.join(_fmt(v) for v in x)}]\n")
    w(f"y = [{', '.join(_fmt(v) for v in y)}]\n")
    w(f"base metric (n = {doc.n}, m = {doc.m}):\n")
    if doc.m == 2:
        w(f"  note: {ORDER2_NOTICE}\n")
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

def _row(formula, note, max_abs=None, max_rel=None, x=None, y=None) -> dict:
    return {"formula": formula, "max_abs": max_abs, "max_rel": max_rel, "x": x, "y": y, "note": note}


def _row_shapes(rows) -> tuple:
    """What the text of a verify row depends on: its formula, its note and
    whether it is defined (not null, as at m = 4)."""
    return tuple((row.formula, row.note, row.max_abs is not None) for row in rows)


def _rows_shape(base: int, n: int, rows: tuple) -> list:
    """The reduced rows of a verify head: each defined row reads its max_abs,
    max_rel, x and y, 2 + 2n numbers, in turn."""
    slots = count(base)
    shaped = []
    for formula, note, defined in rows:
        if defined:
            max_abs, max_rel, *point = islice(slots, 2 + 2 * n)
            shaped.append(_row(formula, note, max_abs, max_rel, point[:n], point[n:]))
        else:
            shaped.append(_row(formula, note))
    return shaped


def _record_shape(base: int, n: int, rows: tuple) -> dict:
    """A verify record: x and y read numbers 0 to 2n - 1, and each defined row
    its max_abs and max_rel in turn."""
    x, y = list(range(base, base + n)), list(range(base + n, base + 2 * n))
    slots = count(base + 2 * n)
    return {"x": x, "y": y, "rows": [
        _row(formula, note, next(slots), next(slots), x, y) if defined else _row(formula, note)
        for formula, note, defined in rows
    ]}


def _check_shape(base: int, n: int) -> dict:
    """A proj-related record: x and y read numbers 0 to 2n - 1, the residual 2n."""
    return {"x": list(range(base, base + n)), "y": list(range(base + n, base + 2 * n)),
            "residual": base + 2 * n}


def _verify_rows(n: int, rows) -> _Section:
    """The reduced rows of verify --json: each row's maxima and their point."""
    numbers = [v for row in rows if row.max_abs is not None
               for v in (row.max_abs, row.max_rel, *row.x, *row.y)]
    return _Section(_rows_shape, (n, _row_shapes(rows)), numbers)


def _verify_records(x, y, rows) -> _Section:
    """The records of verify --json: every row at each sample of the stack (N, n)."""
    residuals = [v for row in rows if row.max_abs is not None for v in (row.max_abs, row.max_rel)]
    return _Section(_record_shape, (x.shape[1], _row_shapes(rows)), [*x.T, *y.T, *residuals])


def _check_records(x, y, residuals) -> _Section:
    """The records of check proj-related --json: the residual at each sample of the stack (N, n)."""
    return _Section(_check_shape, (x.shape[1],), [*x.T, *y.T, residuals])


def cmd_verify(args, argv) -> int:
    doc, oneform, samples, payload = _sampled(args, argv)
    x, y = samples.x, samples.y
    if not len(x):
        raise DomainError("no admissible samples in the requested box")
    per_sample = report.point_report(doc.field, oneform, x, y, samples.jets)
    merged = report.reduce_report(per_sample)

    if args.json:
        payload.update({
            "degenerate_order4": merged.degenerate_order4,
            "notes": merged.notes,
            "records": _verify_records(x, y, per_sample.rows),
            "rows": _verify_rows(doc.n, merged.rows),
        })
        _emit(payload)
        return 0

    w = sys.stdout.write
    _write_header(w, "discrepancy report", doc, args, payload)
    for note in merged.notes:
        w(f"note: {note}\n")
    if merged.degenerate_order4:
        w("note: order m = 4 flagged: closed-form scalar family degenerate\n")
    _write_rejected(w, samples.rejected)
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
    doc, oneform, samples, payload = _sampled(args, argv)
    x, y = samples.x, samples.y
    related = args.kind == "proj-related"
    rep = flatness.check_report(doc.field, oneform, args.kind, x, y, args.tol, samples.jets)

    if args.json and related:
        payload.update({
            "kind": rep.kind,
            "max_wedge_residual": _finite_or_none(rep.max_residual),
            "records": _check_records(x, y, rep.residuals),
            "verdict": rep.verdict,
        })
        _emit(payload)
    elif args.json:
        payload.update({
            "kind": rep.kind,
            "points": len(x),
            "max_residual": _finite_or_none(rep.max_residual),
            "max_closed_residual": _finite_or_none(rep.max_closed_residual),
            "tol": args.tol,
            "verdict": rep.verdict,
        })
        _emit(payload)
    else:
        w = sys.stdout.write
        _write_header(w, f"{'projective relatedness' if related else rep.kind} check",
                      doc, args, payload)
        if related:
            w(f"max wedge residual: {_fmt(rep.max_residual)}\n")
        else:
            w(f"max operational residual: {_fmt(rep.max_residual)}\n")
            w(f"max closed-form residual: {_fmt(rep.max_closed_residual)} (informative)\n")
        w(f"tolerance: {_fmt(args.tol)}\n")
        w(f"verdict: {rep.verdict}\n")
        _write_rejected(w, samples.rejected)

    if rep.verdict == "inconclusive":
        raise DomainError(
            f"only {len(x)} admissible samples "
            f"(minimum {flatness.MIN_VERDICT_SAMPLES} for a verdict)"
        )
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def cmd_geodesic(args, argv) -> int:
    doc = _load(args.spec)
    x0 = _csv_floats(args.x0, doc.n, "--x0")
    y0 = _csv_floats(args.y0, doc.n, "--y0")
    if args.metric == "kropina":
        oneform = _require_oneform(doc)
        energy = calculus.kropina_energy(doc.field, oneform, doc.m)
    else:
        energy = calculus.base_energy(doc.field, doc.m)

    try:  # a path file that cannot be written is refused before the path is integrated
        open(args.out, "a").close()
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from exc
    path = spray.integrate_geodesic(energy, x0, y0, args.t, args.steps)
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
    """Line-oriented numeric text: header then t, x..., v... rows, written as
    one text.  ValidationError when the file cannot be written."""
    cols = " ".join([f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)])
    lines = [f"# t {cols}"]
    if path.truncated:
        lines.append(f"# truncated: {path.reason}")
    lines += [" ".join(map(_fmt, [t, *x.tolist(), *v.tolist()])) for t, x, v in path.samples]
    try:
        with open(path_name, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path_name}: {exc}") from exc


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


# parse_args keeps no state in the parser, and its defaults are immutable.
_parser = cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        # the type hooks raise ValidationError, which argparse lets through
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            # _load writes it once, as a fixed line without a source path
            warnings.simplefilter("ignore", RiemannianOrderWarning)
            return args.func(args, argv)
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except FinslerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError as exc:
        # the reader of stdout has gone: refused like an --out that cannot be
        # written, with fd 1 on devnull so the final flush cannot raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        sys.stderr.write(f"error: cannot write stdout: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
