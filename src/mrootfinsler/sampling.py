"""Seeded point sampling with domain rejection, shared by verify and check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, in_sample_order

DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_Y_BOX = (0.1, 2.0)

# Attempt budget per requested sample before giving up on the domain.
ATTEMPT_FACTOR = 50


@dataclass
class SampleSet:
    """Accepted (x, y) pairs plus every rejected draw with its reason."""

    accepted: list
    rejected: list


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
    """
    low = np.repeat([float(x_box[0]), float(y_box[0])], n)
    scale = np.repeat([float(x_box[1]) - float(x_box[0]), float(y_box[1]) - float(y_box[0])], n)
    if not np.isfinite(scale).all():
        raise ValidationError(f"sampling boxes {x_box}, {y_box}: HI - LO is not finite")
    rng = np.random.default_rng(seed)
    accepted = []
    rejected = []
    attempts = 0
    budget = ATTEMPT_FACTOR * count
    while len(accepted) < count and attempts < budget:
        k = min(count - len(accepted), budget - attempts)
        attempts += k
        block = low + scale * rng.random((k, 2 * n))
        x, y = block[:, :n], block[:, n:]
        while len(x):
            try:
                if domain_check is not None:
                    in_sample_order(domain_check, x, y)
                first, reason = len(x), None
            except DomainError as exc:
                first, reason = exc.sample or 0, str(exc)
            accepted.extend(zip(x[:first], y[:first]))
            if reason is not None:
                rejected.append((x[first], y[first], reason))
            x, y = x[first + 1 :], y[first + 1 :]
    return SampleSet(accepted, rejected)


def stack(pairs):
    """The points and the vectors of a non-empty list of (x, y) pairs, stacked (N, n)."""
    xs, ys = zip(*pairs)
    return np.array(xs, dtype=float), np.array(ys, dtype=float)
