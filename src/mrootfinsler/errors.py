"""Exception taxonomy shared by every module.

All failures raised on purpose derive from FinslerError so callers (and the
CLI exit-code mapping) can tell input problems from numerical ones.

A stack of samples is evaluated stage by stage, and a guard raises for the
lowest failing sample of its stage (`raise_first`).  A loop over the samples
would raise for the lowest sample failing any stage, so `in_sample_order`
evaluates the samples before that one again: the failure a loop would meet
first is the one raised.
"""

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


class DegenerateOrderFour(FinslerError):
    """The closed-form scalar family is singular at order m = 4."""


class ParseError(FinslerError):
    """Metric-spec document is not well-formed."""


class ValidationError(FinslerError):
    """Metric-spec document is well-formed but violates a constraint."""


class RiemannianOrderWarning(UserWarning):
    """Order m = 2 is accepted but flagged: the closed forms target m > 2."""


def raise_first(bad, error, template: str, *values) -> None:
    """Raise error at the lowest sample where `bad` (a numpy boolean per sample) holds.

    The message is `template` formatted with that sample's entry of each of
    `values`: per-sample arrays (scalars for a single point) or lists.
    """
    if not (bad.any() if bad.ndim else bad):
        return
    i = int(np.ravel(bad).argmax())
    exc = error(template.format(
        *(v[i] if isinstance(v, list) else np.ravel(v)[i] for v in values)
    ))
    if np.ndim(bad):
        exc.sample = i
    raise exc


def in_sample_order(evaluate, x, y):
    """evaluate(x, y) over stacked samples, raising what a loop over them would raise first."""
    try:
        return evaluate(x, y)
    except FinslerError as exc:
        if exc.sample:
            in_sample_order(evaluate, x[: exc.sample], y[: exc.sample])
        raise
