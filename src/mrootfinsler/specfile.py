"""Metric-spec documents: the JSON interchange format consumed by the CLI.

A document carries the dimension, the root order, the polynomial coefficient
tensor (canonical sorted indices only) and optionally the one-form.  Parsing
separates malformedness (ParseError) from constraint violations
(ValidationError) and reports the offending path in the message.

This is the one module that reads spec bytes.  `load_spec` reads the file
again on every call, and `load_spec` and `parse_spec` share one document
cache: the documents parsed from the last SPEC_CACHE_SIZE distinct spec
contents, keyed by the exact bytes (or text) and the source (the path),
which error messages name.  A file edited between calls is parsed again; a
spec that fails to parse is never kept.  The cached document is shared, so
callers do not modify it.  The order-2 RiemannianOrderWarning is raised on
every call, cached or not, and names the caller's line.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import ParseError, RiemannianOrderWarning, ValidationError
from .fields import CoefficientField, OneFormField, Polynomial
from .metric import ORDER2_NOTICE, ORDER_MAX, ORDER_MIN

# each derivative pass tabulates every coordinate's powers up to the largest exponent
MAX_EXPONENT = 64

# Distinct spec contents whose parsed documents one process keeps.
SPEC_CACHE_SIZE = 8


@dataclass
class MetricSpecDocument:
    """Validated metric description plus the hash of its source bytes."""

    name: str
    n: int
    m: int
    field: CoefficientField
    oneform: Optional[OneFormField]
    sha256: str


def _require(mapping, key, where):
    if key not in mapping:
        raise ParseError(f"{where}: missing key {key!r}")
    return mapping[key]


def _int(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _poly(raw, n, where) -> Polynomial:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of monomials")
    terms = []
    seen = set()
    for i, mono in enumerate(raw):
        here = f"{where}[{i}]"
        if not isinstance(mono, dict):
            raise ParseError(f"{here}: expected an object")
        exps = _require(mono, "exponents", here)
        coeff = _require(mono, "coeff", here)
        if not isinstance(exps, list) or len(exps) != n:
            raise ValidationError(f"{here}.exponents: expected {n} entries")
        exps = tuple(_int(e, f"{here}.exponents") for e in exps)
        if any(e < 0 or e > MAX_EXPONENT for e in exps):
            raise ValidationError(f"{here}.exponents: each must be in 0..{MAX_EXPONENT}")
        if exps in seen:
            raise ValidationError(f"{here}: duplicate exponent tuple {list(exps)}")
        seen.add(exps)
        if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
            raise ParseError(f"{here}.coeff: expected a number")
        try:
            value = float(coeff)
        except OverflowError:   # an integer beyond float range
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(f"{here}.coeff: expected a finite number within float range")
        terms.append((exps, value))
    return Polynomial(n, terms)


def _entries(raw, key):
    """(where, entry) for each entry of the list `raw` under `key`: ParseError
    unless it is a non-empty list of objects."""
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{key}: expected a non-empty list")
    for i, entry in enumerate(raw):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        yield where, entry


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _parse(text, source: str) -> MetricSpecDocument:
    """The document in `text`, a str or bytes, parsed once per content and
    source; one that failed to parse is not kept, and raises every time."""
    try:
        data = text.encode() if isinstance(text, str) else text
        data.decode("utf-8")
    except UnicodeError as exc:
        raise ParseError(f"{source}: not UTF-8: {exc}") from exc
    sha = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer literal too long to convert
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")

    n = _int(_require(doc, "dimension", source), "dimension")
    m = _int(_require(doc, "order", source), "order")
    if n < 2:
        raise ValidationError(f"dimension: must be at least 2, got {n}")
    if m < ORDER_MIN or m > ORDER_MAX:
        raise ValidationError(f"order: must be in {ORDER_MIN}..{ORDER_MAX}, got {m}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name: expected a string")

    entries = {}
    for where, entry in _entries(_require(doc, "tensor", source), "tensor"):
        indices = _require(entry, "indices", where)
        if not isinstance(indices, list) or len(indices) != m:
            raise ValidationError(f"{where}.indices: expected {m} entries")
        indices = tuple(_int(v, f"{where}.indices") for v in indices)
        if any(v < 1 or v > n for v in indices):
            raise ValidationError(f"{where}.indices: value outside 1..{n}")
        if tuple(sorted(indices)) != indices:
            raise ValidationError(
                f"{where}.indices: {list(indices)} is not canonical (sorted non-decreasing)"
            )
        if indices in entries:
            raise ValidationError(f"{where}.indices: duplicate canonical index")
        entries[indices] = _poly(_require(entry, "poly", where), n, f"{where}.poly")
    field = CoefficientField(n, m, entries)

    oneform = None
    if doc.get("one_form") is not None:
        comps = {}
        for where, entry in _entries(doc["one_form"], "one_form"):
            idx = _int(_require(entry, "index", where), f"{where}.index")
            if idx < 1 or idx > n:
                raise ValidationError(f"{where}.index: value outside 1..{n}")
            if idx in comps:
                raise ValidationError(f"{where}.index: duplicate component {idx}")
            comps[idx] = _poly(_require(entry, "poly", where), n, f"{where}.poly")
        oneform = OneFormField(
            n, [comps.get(i, Polynomial.constant(n, 0.0)) for i in range(1, n + 1)]
        )

    return MetricSpecDocument(name=name, n=n, m=m, field=field, oneform=oneform, sha256=sha)


def _read(path) -> bytes:
    """The bytes of the spec file at `path`; ParseError when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _warned(doc: MetricSpecDocument) -> MetricSpecDocument:
    """`doc`, warning at order 2 on the line that called the public reader."""
    if doc.m == 2:
        warnings.warn(ORDER2_NOTICE, RiemannianOrderWarning, stacklevel=3)
    return doc


def parse_spec(text, source: str = "<text>") -> MetricSpecDocument:
    """The document in `text`, a str or the UTF-8 bytes of a spec file."""
    return _warned(_parse(text if isinstance(text, str) else bytes(text), source))


def load_spec(path) -> MetricSpecDocument:
    """The document of the spec file at `path`, read now."""
    return _warned(_parse(_read(path), str(path)))
