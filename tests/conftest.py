"""Shared fixture geometries and numeric helpers."""

import time
from pathlib import Path

import numpy as np
import pytest

from mrootfinsler import calculus, sampling
from mrootfinsler.fields import CoefficientField, OneFormField, Polynomial
from mrootfinsler.specfile import load_spec

SESSION_T0 = time.monotonic()


def pytest_collection_modifyitems(items):
    # The wall-clock acceptance criterion measures the whole session, so its
    # test must run last.
    tail = [it for it in items if "suite_wall_clock" in it.name]
    for it in tail:
        items.remove(it)
        items.append(it)


# -- fixture geometries -------------------------------------------------------

def diag_quartic():
    """n=2, m=4, unit diagonal coefficients (Minkowski)."""
    return CoefficientField.constant(2, 4, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0})


def berwald_moore():
    """n=4, m=4, fourth root of the coordinate product (Minkowski)."""
    return CoefficientField.constant(4, 4, {(1, 2, 3, 4): 1.0 / 24.0})


def cubic_x():
    """n=2, m=3, diagonal coefficients 1 + x^1 (position dependent)."""
    poly = Polynomial(2, [((0, 0), 1.0), ((1, 0), 1.0)])
    return CoefficientField(2, 3, {(1, 1, 1): poly, (2, 2, 2): poly})


def mixed_quartic():
    """n=3, m=4, constant with off-diagonal entries (Minkowski)."""
    return CoefficientField.constant(
        3, 4,
        {
            (1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (3, 3, 3, 3): 1.0,
            (1, 1, 2, 2): 0.25, (1, 2, 3, 3): 0.1,
        },
    )


def riemann_identity():
    """n=2, m=2, identity coefficients (flagged Riemannian order)."""
    return CoefficientField.constant(2, 2, {(1, 1): 1.0, (2, 2): 1.0})


def riemann_x():
    """n=2, m=2 with x-dependence, for order-2 condition checks."""
    poly = Polynomial(2, [((0, 0), 1.0), ((1, 0), 0.5)])
    return CoefficientField(2, 2, {(1, 1): poly, (2, 2): Polynomial.constant(2, 1.0)})


def b_const(n=2):
    return OneFormField.constant(n, [1.0] + [0.0] * (n - 1))


def b_bx():
    """b_1 = 1 + x^2, b_2 = 0."""
    return OneFormField(
        2, [Polynomial(2, [((0, 0), 1.0), ((0, 1), 1.0)]), Polynomial.constant(2, 0.0)]
    )


def b_mixed():
    return OneFormField.constant(3, [1.0, 0.5, 0.0])


# (field factory, order, one-form factory) for the four main geometries
MAIN_FIXTURES = (
    ("diag-quartic", diag_quartic, 4, lambda: b_const(2)),
    ("berwald-moore", berwald_moore, 4, lambda: b_const(4)),
    ("cubic-x", cubic_x, 3, lambda: b_const(2)),
    ("mixed-quartic", mixed_quartic, 4, b_mixed),
)

MINKOWSKI_FIXTURES = (
    ("diag-quartic", diag_quartic, 4, lambda: b_const(2)),
    ("berwald-moore", berwald_moore, 4, lambda: b_const(4)),
    ("mixed-quartic", mixed_quartic, 4, b_mixed),
)


def seeded_points(n, count, seed, x_lo=-0.4, x_hi=0.4, y_lo=0.1, y_hi=2.0):
    """Deterministic (x, y) samples; the x-box keeps 1 + x^1 well positive."""
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(x_lo, x_hi, size=n), rng.uniform(y_lo, y_hi, size=n))
        for _ in range(count)
    ]


def rel_err(value, reference):
    ref = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(np.asarray(value, dtype=float) - ref))) / (
        1.0 + float(np.max(np.abs(ref)))
    )


# the shipped fixture documents that carry a one-form
ONE_FORM_SPECS = ("berwald_moore", "cubic_x", "cubic_x_bx", "diag_quartic", "mixed_quartic")
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def spec_samples(name, count, seed):
    """A shipped fixture document with its admissible samples, one by one and stacked."""
    doc = load_spec(FIXTURE_DIR / f"{name}.json")
    samples = sampling.sample_points(
        doc.n, count, seed, domain_check=calculus.domain_check(doc.field, doc.oneform)
    )
    return doc, list(zip(samples.x, samples.y)), (samples.x, samples.y)


def assert_stack_matches(stacked, single, what=""):
    """A stacked result against the single-point results, within 1e-13 (1 + |v|)."""
    stacked = np.asarray(stacked, dtype=float)
    single = np.asarray(single, dtype=float)
    assert stacked.shape == single.shape, what
    assert np.all(np.abs(stacked - single) <= 1e-13 * (1.0 + np.abs(single))), what


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
