"""The block sampler against the loop over attempts it replaces (tests/_oracles.py)."""

import warnings

import numpy as np
import pytest

from mrootfinsler import calculus, sampling
from mrootfinsler.errors import DomainError, ValidationError, raise_first
from mrootfinsler.specfile import load_spec

from _oracles import sample_points_loop
from conftest import FIXTURE_DIR, ONE_FORM_SPECS

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
    assert len(got.x) == len(got.y) == len(accepted)
    assert len(got.rejected) == len(rejected)
    for x, y, (x_ref, y_ref) in zip(got.x, got.y, accepted):
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
        assert len(got.x) == 25 and not got.rejected


def _refuse_all(x, y):
    raise_first(np.ones(np.shape(x)[:-1], dtype=bool), DomainError, "refused x[0] = {}",
                x[..., 0])


def _refuse_low_half(x, y):
    # about every other draw: those whose x^1 lies in the lower half of its box
    raise_first(x[..., 0] < 0.0, DomainError, "refused x[0] = {}", x[..., 0])


def test_block_sampler_budget_all_rejected():
    got = assert_same_draws(2, 7, 5, DEFAULT_BOXES, _refuse_all)
    assert not len(got.x)
    assert len(got.rejected) == sampling.ATTEMPT_FACTOR * 7


def test_block_sampler_refusing_every_other_draw():
    for seed in (0, 1, 2):
        got = assert_same_draws(2, 30, seed, DEFAULT_BOXES, _refuse_low_half)
        assert len(got.x) == 30 and len(got.rejected) > 10


def test_block_sampler_rejects_infinite_box():
    with pytest.raises(ValidationError):
        sampling.sample_points(2, 5, 0, x_box=(-np.inf, 1.0))


def _counted(check):
    """check, counting its calls in .calls."""
    def counted(x, y):
        counted.calls += 1
        return check(x, y)
    counted.calls = 0
    return counted


def _scarce(check):
    """check after refusing every draw whose x^1 lies below 0.98: most of them."""
    def scarce(x, y):
        raise_first(x[..., 0] < 0.98, DomainError, "scarce x[0] = {}", x[..., 0])
        return check(x, y)
    return scarce


@pytest.mark.parametrize("case, count, seed, boxes, scarce", [
    ("whole block", 40, 0, DEFAULT_BOXES, False),
    ("rejections", 40, 4, (sampling.DEFAULT_X_BOX, (-2.0, 2.0)), False),
    ("budget exhausted", 3, 1, DEFAULT_BOXES, True),
    ("none accepted", 5, 0, ((-3.0, -2.0), sampling.DEFAULT_Y_BOX), False),
])
def test_sampler_pass_is_the_pass_over_the_accepted_stacks(case, count, seed, boxes, scarce):
    # the pass handed on with the draws is field_jets on the returned stacks,
    # bit for bit: the first block's when it was accepted whole (the check
    # ran once), else made once more over the accepted stack when first read
    situation = {
        "whole block": lambda got: not got.rejected,
        "rejections": lambda got: got.rejected and len(got.x) == count,
        "budget exhausted": lambda got: 0 < len(got.x) < count,
        "none accepted": lambda got: not len(got.x),
    }[case]
    met = []
    for name in ONE_FORM_SPECS:
        doc = _load(name)
        real = calculus.domain_check(doc.field, doc.oneform)
        check = _counted(_scarce(real) if scarce else real)
        got = sampling.sample_points(doc.n, count, seed, *boxes, domain_check=check)
        assert got.x.shape == got.y.shape == (len(got.x), doc.n)
        assert got.x.flags.c_contiguous and got.y.flags.c_contiguous
        calls = check.calls
        if not got.rejected:
            assert calls == 1, name
        if len(got.x):
            expected = calculus.field_jets(doc.field, doc.oneform, got.x, got.y)
            assert np.array_equal(got.jets.block, expected.block), name
        else:
            assert got.jets is None
        assert got.jets is got.jets  # made at most once
        assert check.calls == calls + bool(got.rejected and len(got.x)), name
        if situation(got):
            met.append(name)
    assert met, case
