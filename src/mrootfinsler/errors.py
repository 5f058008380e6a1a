"""Exception taxonomy shared by every module.

All failures raised on purpose derive from FinslerError so callers (and the
CLI exit-code mapping) can tell input problems from numerical ones.

A guard raises for the lowest failing sample of a stack (`raise_first`).  The
domain guard of a pass decides each row alone (fields.TermTable.refusals, one
point first by its fast form), so the refusal it raises is the one a loop over
the samples meets first.  The multi-stage stacks of `report` and `flatness`
(the P/Q split among their stages) run stage by stage, and a loop would raise
for the lowest sample failing any stage, so `in_sample_order` evaluates the
samples before that one again, slicing x, y and a pass over them alike.
`check_finite` is the guard on reported values (a NaN would drop out of a
maximum): the `verify` rows, every `check` residual and the quantities `eval`
prints, `verify` and `eval` under np.errstate(all="ignore").
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


def in_sample_order(evaluate, *stacks):
    """evaluate(*stacks) over stacked samples, raising what a loop over them would raise first."""
    try:
        return evaluate(*stacks)
    except FinslerError as exc:
        if exc.sample:
            in_sample_order(evaluate, *(s if s is None else s[: exc.sample] for s in stacks))
        raise


def check_finite(named, x, y) -> None:
    """NonFiniteResult at the lowest sample with a value that is not finite.

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
