"""Exception taxonomy shared by every module.

All failures raised on purpose derive from FinslerError so callers (and the
CLI exit-code mapping) can tell input problems from numerical ones.

Every guard refuses through `raise_first`, with one boolean per sample of a
stack.  A stack evaluation (`recorded`) is one scope under
np.errstate(all="ignore"), and every public evaluator opens one by the same
decorator, `in_sample_order`; a scope opened inside another records into the
outermost one.  Inside it a guard on a stack records, per sample, the first
refusal met there, which is what that sample alone raises, and evaluation goes
on; the decorator then raises the lowest sample's refusal, the one a loop over
the samples meets first.  The sampler reads the record itself.  Outside any
stack evaluation (the geodesic integrator's RK4 stages, under a plain
errstate) a guard raises at once, for its lowest refused sample.
`check_finite` is the guard on reported values (a NaN would drop out of a
maximum): the `verify` rows, every `check` residual and what `eval` prints.
"""

from contextvars import ContextVar
from functools import wraps

import numpy as np


class FinslerError(Exception):
    """Base class for all package errors.

    `sample` is the index of the failing sample in the flattened batch when a
    stack of samples was evaluated, None for a single point.
    """

    sample = None


class DimensionMismatch(FinslerError):
    """Vector/point length does not match the declared dimension."""


class IndexOutOfRange(FinslerError):
    """Tensor index outside 1..n."""


class OrderOutOfRange(FinslerError):
    """Requested contraction order exceeds what the tensor supports."""


class DomainError(FinslerError):
    """Point outside the smooth domain (root argument not positive, or the
    one-form vanishes)."""


class NonFiniteResult(FinslerError):
    """A computation produced NaN or infinity."""


class SingularMatrix(FinslerError):
    """Matrix inversion refused: condition number above the guard."""


class ParseError(FinslerError):
    """Metric-spec document is not well-formed."""


class ValidationError(FinslerError):
    """Metric-spec document is well-formed but violates a constraint."""


# The numerical failures: the CLI exits 3 on them, and a geodesic step that
# meets one truncates the path.
NUMERIC_ERRORS = (DomainError, NonFiniteResult, SingularMatrix)


class RiemannianOrderWarning(UserWarning):
    """Order m = 2 is accepted but flagged: the closed forms target m > 2."""


# The record of the stack evaluation under way, {sample: first refusal}, or None.
_record = ContextVar("record", default=None)


def raise_first(bad, error, template: str, *values) -> None:
    """Refuse each sample where `bad` (a numpy boolean per sample) holds with error.

    The message is `template` formatted with that sample's entry of each of
    `values`: per-sample arrays (scalars for a single point) or lists.  A
    single point raises; a stack raises for its lowest refused sample, or,
    inside a stack evaluation (`recorded`), records each sample not yet
    refused there.
    """
    if not (bad.any() if bad.ndim else bad):
        return

    def refusal(i):
        exc = error(template.format(
            *(v[i] if isinstance(v, list) else np.ravel(v)[i] for v in values)
        ))
        if bad.ndim:
            exc.sample = i
        return exc

    record = _record.get() if bad.ndim else None
    if record is None:
        raise refusal(int(np.ravel(bad).argmax()))
    for i in np.flatnonzero(bad).tolist():
        if i not in record:
            record[i] = refusal(i)


def recorded(evaluate, *args, **kwargs):
    """evaluate(*args, **kwargs) as one stack evaluation, and its record:
    {sample: the first refusal of a guard there}, empty inside an enclosing
    evaluation, whose record gets them."""
    if _record.get() is not None:
        return evaluate(*args, **kwargs), {}
    record = {}
    token = _record.set(record)
    try:
        with np.errstate(all="ignore"):
            return evaluate(*args, **kwargs), record
    finally:
        _record.reset(token)


def in_sample_order(evaluate):
    """Decorate a public evaluator: each call is one stack evaluation
    (`recorded`) that raises what a loop over the samples would raise first."""
    @wraps(evaluate)
    def evaluation(*args, **kwargs):
        result, record = recorded(evaluate, *args, **kwargs)
        if record:
            raise record[min(record)]
        return result
    return evaluation


def check_finite(named, x, y) -> None:
    """NonFiniteResult for each sample with a value that is not finite (raise_first).

    `named` holds (name, value) pairs, each value one number per sample of
    the stack (x, y), or a scalar at a single point; the message names the
    first pair that is not finite at that sample.
    """
    names, values = zip(*named)
    bad = ~np.isfinite(np.array(values, dtype=float))
    if bad.any():
        n = np.shape(x)[-1]
        raise_first(
            bad.any(axis=0), NonFiniteResult, "{} is not finite at x={}, y={}",
            [names[r] for r in np.ravel(bad.argmax(axis=0))],
            np.reshape(x, (-1, n)).tolist(), np.reshape(y, (-1, n)).tolist(),
        )
