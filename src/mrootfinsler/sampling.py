"""Seeded point sampling with domain rejection, shared by verify and check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FinslerError

DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_Y_BOX = (0.1, 2.0)

# Attempt budget per requested sample before giving up on the domain.
ATTEMPT_FACTOR = 50


@dataclass
class SampleSet:
    """Accepted (x, y) pairs plus every rejected draw with its reason."""

    accepted: list
    rejected: list
    requested: int


def sample_points(
    n: int, count: int, seed: int,
    x_box=DEFAULT_X_BOX, y_box=DEFAULT_Y_BOX, domain_check=None,
) -> SampleSet:
    """Draw uniform (x, y) pairs, rejecting draws the domain check refuses.

    The generator sequence depends only on (n, count, seed, boxes), so reports
    built on top of this are reproducible byte for byte.
    """
    rng = np.random.default_rng(seed)
    accepted = []
    rejected = []
    attempts = 0
    budget = ATTEMPT_FACTOR * count
    while len(accepted) < count and attempts < budget:
        attempts += 1
        x = rng.uniform(x_box[0], x_box[1], size=n)
        y = rng.uniform(y_box[0], y_box[1], size=n)
        if domain_check is not None:
            try:
                domain_check(x, y)
            except FinslerError as exc:
                rejected.append((x, y, str(exc)))
                continue
        accepted.append((x, y))
    return SampleSet(accepted, rejected, count)
