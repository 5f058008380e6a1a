"""Seeded point sampling with domain rejection, shared by verify and check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, recorded

DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_Y_BOX = (0.1, 2.0)

# Attempt budget per requested sample before giving up on the domain.
ATTEMPT_FACTOR = 50


@dataclass
class SampleSet:
    """The accepted draws stacked (N, n) in draw order, every rejected draw
    (x, y, reason), and `jets`, the domain check's pass over the draws when
    its first block was accepted whole, else None."""

    x: np.ndarray
    y: np.ndarray
    rejected: list
    jets: object = None


def sample_points(
    n: int, count: int, seed: int,
    x_box=DEFAULT_X_BOX, y_box=DEFAULT_Y_BOX, *, domain_check,
) -> SampleSet:
    """Draw uniform (x, y) pairs, rejecting draws the domain check refuses.

    Each attempt draws x, then y, from the boxes, and attempts go on until
    `count` draws are accepted or ATTEMPT_FACTOR * count were made.  The
    attempts still needed come as one block of rows (x, y), the numbers
    `rng.uniform` would draw attempt by attempt.  The check, the guarded
    pass (calculus.field_jets bound to the field pair), decides the block in
    one stack evaluation (errors.recorded), which gives each refused row the
    refusal a check of that draw alone raises.  The rows it clears are
    accepted and those it refuses with a DomainError rejected, with its
    message; any other refusal (an overflow, say) stops the sampling.
    The draws, their order and the rejections are those of a loop over the
    attempts, so reports built on top of this are reproducible byte for byte.

    The pass over a first block accepted whole is handed on as `jets`.
    After a rejection a consumer makes the pass over the accepted stack
    itself: the rows of the block passes are not gathered, because a row's
    pass may differ in the last bits with the length of the stack it is in.
    """
    low = np.repeat([float(x_box[0]), float(y_box[0])], n)
    scale = np.repeat([float(x_box[1]) - float(x_box[0]), float(y_box[1]) - float(y_box[0])], n)
    if not np.isfinite(scale).all():
        raise ValidationError(f"sampling boxes {x_box}, {y_box}: HI - LO is not finite")
    rng = np.random.default_rng(seed)
    pieces, rejected, whole = [(np.empty((0, n)),) * 2], [], None
    accepted = attempts = 0
    budget = ATTEMPT_FACTOR * count
    while accepted < count and attempts < budget:
        k = min(count - accepted, budget - attempts)
        attempts += k
        block = low + scale * rng.random((k, 2 * n))
        x, y = block[:, :n], block[:, n:]
        whole, refused = recorded(domain_check, x, y)
        for i, exc in sorted(refused.items()):
            if not isinstance(exc, DomainError):
                raise exc
            rejected.append((x[i], y[i], str(exc)))
        if refused:
            x, y = (np.delete(a, list(refused), axis=0) for a in (x, y))
        pieces.append((x, y))
        accepted += len(x)
    x, y = map(np.concatenate, zip(*pieces))
    return SampleSet(x, y, rejected, None if rejected else whole)
