"""The block sampler against the loop over attempts it replaces (tests/_oracles.py)."""

import warnings
from functools import partial

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
    check = partial(calculus.field_jets, doc.field, doc.oneform)
    rejections = 0
    for seed in (0, 1, 7, 123):
        for boxes in (DEFAULT_BOXES, WIDE_BOXES):
            got = assert_same_draws(doc.n, 40, seed, boxes, check)
            rejections += len(got.rejected)
    if name in ("berwald_moore", "cubic_x", "cubic_x_bx"):
        assert rejections > 0, name


def _accept_all(x, y):
    return None


def test_block_sampler_without_check():
    for seed in (0, 3):
        got = assert_same_draws(3, 25, seed, WIDE_BOXES, _accept_all)
        assert len(got.x) == 25 and not got.rejected


class _Refusing:
    """A domain check refusing each draw whose x^1 lies below `below`, with
    "<name> x[0] = <x^1>", then each draw `check` refuses, if given.  It
    refuses through raise_first, as the package's guards do, and returns the
    pass `check` makes, or None."""

    def __init__(self, name, below, check=None):
        self.name, self.below, self.check = name, below, check

    def __call__(self, x, y):
        first = np.asarray(x)[..., 0]
        raise_first(first < self.below, DomainError, f"{self.name} x[0] = {{}}", first)
        return None if self.check is None else self.check(x, y)


_refuse_all = _Refusing("refused", np.inf)
# about every other draw: those whose x^1 lies in the lower half of its box
_refuse_low_half = _Refusing("refused", 0.0)


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
        sampling.sample_points(2, 5, 0, x_box=(-np.inf, 1.0), domain_check=_accept_all)


class _Counted:
    """check, counting its calls (one pass each) in .calls."""

    def __init__(self, check):
        self.check, self.calls = check, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.check(x, y)


@pytest.mark.parametrize("case, count, seed, boxes, scarce", [
    ("whole block", 40, 0, DEFAULT_BOXES, False),
    ("rejections", 40, 4, (sampling.DEFAULT_X_BOX, (-2.0, 2.0)), False),
    ("budget exhausted", 3, 1, DEFAULT_BOXES, True),
    ("none accepted", 5, 0, ((-3.0, -2.0), sampling.DEFAULT_Y_BOX), False),
])
def test_sampler_pass_is_the_pass_over_the_accepted_stacks(case, count, seed, boxes, scarce):
    # the pass handed on with the draws is the first block's when it was
    # accepted whole, the check run once: field_jets on the returned stacks,
    # bit for bit; after a rejection none is, and the consumer makes its own
    situation = {
        "whole block": lambda got: not got.rejected,
        "rejections": lambda got: got.rejected and len(got.x) == count,
        "budget exhausted": lambda got: 0 < len(got.x) < count,
        "none accepted": lambda got: not len(got.x),
    }[case]
    met = []
    for name in ONE_FORM_SPECS:
        doc = _load(name)
        real = partial(calculus.field_jets, doc.field, doc.oneform)
        # scarce: most draws refused, those whose x^1 lies below 0.98
        check = _Counted(_Refusing("scarce", 0.98, real) if scarce else real)
        got = sampling.sample_points(doc.n, count, seed, *boxes, domain_check=check)
        assert got.x.shape == got.y.shape == (len(got.x), doc.n)
        assert got.x.flags.c_contiguous and got.y.flags.c_contiguous
        if got.rejected:
            assert got.jets is None, name
        else:
            assert check.calls == 1, name
            expected = calculus.field_jets(doc.field, doc.oneform, got.x, got.y)
            assert np.array_equal(got.jets.block, expected.block), name
        if situation(got):
            met.append(name)
    assert met, case
