"""The block sampler against the loop over attempts it replaces (tests/_oracles.py)."""

import warnings

import numpy as np
import pytest

from mrootfinsler import calculus, sampling
from mrootfinsler.errors import DomainError, ValidationError, raise_first
from mrootfinsler.specfile import load_spec

from _oracles import sample_points_loop
from conftest import FIXTURE_DIR

ALL_SPECS = ("berwald_moore", "cubic_x", "cubic_x_bx", "diag_quartic", "mixed_quartic",
             "riemann_identity")
DEFAULT_BOXES = (sampling.DEFAULT_X_BOX, sampling.DEFAULT_Y_BOX)
# wide enough that the form of the cubic and Berwald-Moore fixtures changes sign
WIDE_BOXES = ((-3.0, 3.0), (-2.0, 2.0))


def _load(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # riemann_identity is flagged order 2
        return load_spec(FIXTURE_DIR / f"{name}.json")


def assert_same_draws(n, count, seed, boxes, domain_check):
    got = sampling.sample_points(n, count, seed, *boxes, domain_check=domain_check)
    accepted, rejected = sample_points_loop(
        n, count, seed, *boxes, domain_check, sampling.ATTEMPT_FACTOR
    )
    assert len(got.accepted) == len(accepted)
    assert len(got.rejected) == len(rejected)
    for (x, y), (x_ref, y_ref) in zip(got.accepted, accepted):
        assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
    for (x, y, reason), (x_ref, y_ref, reason_ref) in zip(got.rejected, rejected):
        assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        assert reason == reason_ref
    return got


@pytest.mark.parametrize("name", ALL_SPECS)
def test_block_sampler_matches_attempt_loop(name):
    doc = _load(name)
    check = calculus.domain_check(doc.field, doc.oneform)
    rejections = 0
    for seed in (0, 1, 7, 123):
        for boxes in (DEFAULT_BOXES, WIDE_BOXES):
            got = assert_same_draws(doc.n, 40, seed, boxes, check)
            rejections += len(got.rejected)
    if name in ("berwald_moore", "cubic_x", "cubic_x_bx"):
        assert rejections > 0, name


def test_block_sampler_without_check():
    for seed in (0, 3):
        got = assert_same_draws(3, 25, seed, WIDE_BOXES, None)
        assert len(got.accepted) == 25 and not got.rejected


def _refuse_all(x, y):
    raise_first(np.ones(np.shape(x)[:-1], dtype=bool), DomainError, "refused x[0] = {}",
                x[..., 0])


def _refuse_low_half(x, y):
    # about every other draw: those whose x^1 lies in the lower half of its box
    raise_first(x[..., 0] < 0.0, DomainError, "refused x[0] = {}", x[..., 0])


def test_block_sampler_budget_all_rejected():
    got = assert_same_draws(2, 7, 5, DEFAULT_BOXES, _refuse_all)
    assert not got.accepted
    assert len(got.rejected) == sampling.ATTEMPT_FACTOR * 7


def test_block_sampler_refusing_every_other_draw():
    for seed in (0, 1, 2):
        got = assert_same_draws(2, 30, seed, DEFAULT_BOXES, _refuse_low_half)
        assert len(got.accepted) == 30 and len(got.rejected) > 10


def test_block_sampler_rejects_infinite_box():
    with pytest.raises(ValidationError):
        sampling.sample_points(2, 5, 0, x_box=(-np.inf, 1.0))
