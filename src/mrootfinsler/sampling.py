"""Seeded point sampling with domain rejection, shared by verify and check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError, in_sample_order

DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_Y_BOX = (0.1, 2.0)

# Attempt budget per requested sample before giving up on the domain.
ATTEMPT_FACTOR = 50


@dataclass
class SampleSet:
    """The accepted draws stacked (N, n) in draw order, every rejected draw
    (x, y, reason) and `jets`, the domain check's pass over the accepted draws."""

    x: np.ndarray
    y: np.ndarray
    rejected: list
    check: object = None   # the domain check
    whole: object = None   # its pass over the first block, when accepted whole

    @cached_property
    def jets(self):
        """The first block's pass, or domain_check(x, y) now; None without a check or a draw."""
        if self.whole is None and self.check is not None and len(self.x):
            return in_sample_order(self.check, self.x, self.y)
        return self.whole


def sample_points(
    n: int, count: int, seed: int,
    x_box=DEFAULT_X_BOX, y_box=DEFAULT_Y_BOX, domain_check=None,
) -> SampleSet:
    """Draw uniform (x, y) pairs, rejecting draws the domain check refuses.

    Each attempt draws x, then y, from the boxes, and attempts go on until
    `count` draws are accepted or ATTEMPT_FACTOR * count were made.  The
    attempts still needed come as one block of rows (x, y), the numbers
    `rng.uniform` would draw attempt by attempt, and the domain check runs on
    the block in sample order (`errors.in_sample_order`): the draws before the
    first one it refuses are accepted, that one is rejected with the reason
    the check gives for it, and the rest of the block is checked again.  The
    check therefore takes stacks (k, n) and refuses a draw with a DomainError
    naming it in `.sample`, as the guards of `errors.raise_first` do; any
    other error (an overflow, say) stops the sampling.  The
    draws, their order and the rejections are those of a loop over the
    attempts, so they depend only on (n, count, seed, boxes) and reports built
    on top of this are reproducible byte for byte.

    The check's pass over a first block accepted whole is reused as `jets`.
    After a rejection `jets` is made once, over the accepted stack, when first
    read: the passes of the pieces are not joined, because a row's pass may
    differ in the last bits with the length of the stack it is in.
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
        while len(x):
            try:
                if domain_check is not None:
                    whole = in_sample_order(domain_check, x, y)
                first, reason = len(x), None
            except DomainError as exc:
                first, reason = exc.sample or 0, str(exc)
            pieces.append((x[:first], y[:first]))
            accepted += first
            if reason is not None:
                rejected.append((x[first], y[first], reason))
            x, y = x[first + 1 :], y[first + 1 :]
    x, y = map(np.concatenate, zip(*pieces))
    return SampleSet(x, y, rejected, domain_check, None if rejected else whole)
