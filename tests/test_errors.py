"""The refusal rule of every stack guard against a loop over the samples.

A stack of samples of cubic_x_bx holds rows that fail at different stages: a
floor of the domain guard, an overflow of the pass, the cond-1e12 guard, a
power that overflows in the chain rule and a residual that is not finite.
Evaluated as one stack, every public evaluator must raise what a loop over
the samples, each evaluated alone, meets first (_oracles.first_failure): the
same type and message, with that sample's index as `.sample`, and without a
RuntimeWarning on the way.
"""

from functools import partial

import numpy as np
import pytest

import _oracles as oracles
from _oracles import sample_points_loop
from conftest import FIXTURE_DIR
from mrootfinsler import calculus, flatness, kropina, metric, report, sampling, spray
from mrootfinsler.errors import DomainError, FinslerError, NonFiniteResult, SingularMatrix
from mrootfinsler.specfile import load_spec

# (x, y) of each failing row, by the first stage it fails at
FAILING = {
    "form floor": ([0.1, 0.2], [1.0, -2.0]),
    "one-form floor": ([0.1, -1.0], [1.0, 0.5]),
    # y1^3 is past the largest float
    "overflow": ([0.1, 0.2], [1e110, 1.0]),
    # A_ij = 1.1 diag(y) has condition number 1e13
    "condition": ([0.1, 0.2], [1.0, 1e-13]),
    # the closed forms of verify overflow
    "large x": ([6.732655185893089e150, 3.428080423874833e150],
                [0.17784969547876991, 0.1314025075042053]),
    # A^(4/3) overflows, and the proj-flat closed-form residual is not finite
    "large y": ([0.27, -0.46], [1.37e100, 1.15e100]),
}


def _failure(evaluate, x, y):
    """The stack's failure: (type, message, .sample), None when it passes."""
    try:
        evaluate(x, y)
    except FinslerError as exc:
        return type(exc), str(exc), exc.sample
    return None


def _evaluators(doc):
    field, oneform, m = doc.field, doc.oneform, doc.m

    def check(kind, x, y):
        # a sample alone as a stack of one: check_report takes stacks
        return flatness.check_report(field, oneform, kind, np.atleast_2d(x), np.atleast_2d(y),
                                     flatness.DEFAULT_TOL)

    energies = (calculus.mth_root_norm(field, m), calculus.base_energy(field, m),
                calculus.kropina_norm(field, oneform, m), calculus.kropina_energy(field, oneform, m))
    evaluators = {
        "field_jets": partial(calculus.field_jets, field, oneform),
        "point_report": partial(report.point_report, field, oneform),
        "metric_point": partial(metric.metric_point, field),
        "kropina_point": partial(kropina.kropina_point, field, oneform),
        "pq_decomposition": partial(spray.pq_decomposition, field, oneform),
        "projective_residual": partial(spray.projective_residual, field, oneform),
        "dually_flat_residual": partial(flatness.dually_flat_residual, field, oneform),
        "proj_flat_residual": partial(flatness.proj_flat_residual, field, oneform),
        "dually_flat_condition": partial(flatness.dually_flat_condition, field, oneform),
        "proj_flat_condition": partial(flatness.proj_flat_condition, field, oneform),
    }
    for f in energies:
        evaluators[f"derivatives {f.name}"] = partial(calculus.derivatives, f)
    # the sprays of the two squared norms: a norm's y-Hessian is singular
    for f in energies[1::2]:
        evaluators[f"spray_coeffs {f.name}"] = partial(spray.spray_coeffs, f)
    evaluators.update({kind: partial(check, kind) for kind in flatness.CHECKS})
    return evaluators


# a stack whose middle row overflows A^(4/3) and whose last row is below the
# form floor: a loop meets the overflow first
LARGE_Y_THEN_FLOOR = ([[0.1, 0.2], [0.27, -0.46], [0.1, 0.2]],
                      [[1.0, 0.5], [1.37e100, 1.15e100], [1.0, -2.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacks_raise_what_a_sample_loop_meets_first():
    doc = load_spec(FIXTURE_DIR / "cubic_x_bx.json")
    evaluators = _evaluators(doc)
    good = sampling.sample_points(
        doc.n, len(FAILING), 0, domain_check=partial(calculus.field_jets, doc.field, doc.oneform))
    names = list(FAILING)
    met = set()
    # each failing row leads once, each after an accepted sample, so every
    # stage fails first at a sample above another stage's failure
    for shift in range(len(names)):
        order = names[shift:] + names[:shift]
        rows = [row for i, name in enumerate(order)
                for row in ((good.x[i], good.y[i]), FAILING[name])]
        xs, ys = (np.array(column, dtype=float) for column in zip(*rows))
        for what, evaluate in evaluators.items():
            loop = oracles.first_failure(evaluate, xs, ys)
            assert loop is not None, (what, order)
            assert _failure(evaluate, xs, ys) == loop, (what, order)
            met.add((what, loop[0], order[loop[2] // 2]))
    xs, ys = (np.array(column) for column in LARGE_Y_THEN_FLOOR)
    for what, evaluate in evaluators.items():
        loop = oracles.first_failure(evaluate, xs, ys)
        assert loop is not None, what
        assert _failure(evaluate, xs, ys) == loop, what
    for what in ("derivatives Fbar^2", "kropina_point", "dually_flat_residual", "pq_decomposition"):
        assert _failure(evaluators[what], xs, ys) == (
            NonFiniteResult, "power 1.3333333333333333 of 5.19712956e+300 overflows", 1), what
    # the stages a loop met first, on some stack, for some evaluator
    assert {(error, name) for _, error, name in met} >= {
        (DomainError, "form floor"), (DomainError, "one-form floor"),
        (NonFiniteResult, "overflow"), (SingularMatrix, "condition"),
        (NonFiniteResult, "large x"), (NonFiniteResult, "large y"),
    }
    assert ("point_report", NonFiniteResult, "large x") in met
    assert ("proj-flat", NonFiniteResult, "large y") in met


def _blown_up(doc, x, y):
    """The guarded pass with y scaled by 1e110 at the draws whose x^1 lies
    above 0.8, where the form overflows: a refusal that stops the sampler."""
    y = np.where(np.asarray(x)[..., :1] > 0.8, 1e110 * np.asarray(y), y)
    return calculus.field_jets(doc.field, doc.oneform, x, y)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampler_stops_where_a_loop_over_the_attempts_stops(seed):
    # the default boxes reject nothing, so the first overflow lies in the
    # first block of attempts, at the row a loop over them meets first;
    # with the y box straddling 0, draws are rejected first at the floors
    doc = load_spec(FIXTURE_DIR / "cubic_x_bx.json")
    check = partial(_blown_up, doc)
    count, boxes = 30, (sampling.DEFAULT_X_BOX, sampling.DEFAULT_Y_BOX)
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(*boxes[0], doc.n), rng.uniform(*boxes[1], doc.n)) for _ in range(count)]
    loop = oracles.first_failure(check, *map(np.array, zip(*draws)))
    assert loop is not None and loop[0] is NonFiniteResult
    with pytest.raises(NonFiniteResult) as got:
        sampling.sample_points(doc.n, count, seed, *boxes, domain_check=check)
    assert (type(got.value), str(got.value), got.value.sample) == loop
    boxes = (sampling.DEFAULT_X_BOX, (-2.0, 2.0))
    with pytest.raises(FinslerError) as got:
        sampling.sample_points(doc.n, count, seed, *boxes, domain_check=check)
    with pytest.raises(FinslerError) as want:
        sample_points_loop(doc.n, count, seed, *boxes, check, sampling.ATTEMPT_FACTOR)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
