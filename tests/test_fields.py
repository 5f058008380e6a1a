import itertools
import warnings
from functools import partial

import numpy as np
import pytest

import _oracles as oracles
from conftest import FIXTURE_DIR, ONE_FORM_SPECS, b_bx, b_const, cubic_x, diag_quartic, raw_pass, spec_samples
from mrootfinsler import calculus, sampling
from mrootfinsler.errors import DimensionMismatch, DomainError, NonFiniteResult, RiemannianOrderWarning, recorded
from mrootfinsler.fields import CoefficientField, OneFormField, Polynomial, TermTable, norm, pack
from mrootfinsler.specfile import load_spec


def test_tensor_at_examples():
    field = cubic_x()
    t0 = field.tensor_at([0.0, 0.0])
    assert t0.entries[(1, 1, 1)] == 1.0
    assert t0.entries[(2, 2, 2)] == 1.0
    t1 = field.tensor_at([1.0, 0.0])
    assert t1.entries[(1, 1, 1)] == 2.0

    const = diag_quartic()
    a = const.tensor_at([0.3, -0.8]).entries
    b = const.tensor_at([5.0, 5.0]).entries
    assert a == b


@pytest.mark.parametrize("name", ("riemann_identity",) + ONE_FORM_SPECS)
def test_tensor_at_matches_polynomial_evaluation(name):
    # tensor_at evaluates each entry's Polynomial on its own; the pass at
    # (x, 0) reads the same c_t(x) off its one matrix.  (A random entry can
    # cancel to 3% of its largest term, and the two sums then differ by more.)
    field, _ = _fields(name)
    for x in np.random.default_rng(3).uniform(-1.5, 1.5, (50, field.n)).tolist():
        entries = field.tensor_at(x).entries
        assert list(entries) == list(field.entries), name
        coefficients = raw_pass(field.terms_with(None), pack(x, np.zeros(field.n), field.n))[1][0].tolist()
        for (key, poly), c in zip(field.entries.items(), coefficients):
            assert entries[key] == poly(x), (name, key, x)
            assert c == pytest.approx(entries[key], rel=1e-14, abs=0), (name, key, x)


@pytest.mark.parametrize("name", ("riemann_identity", "parallel_m3", "parallel_m4") + ONE_FORM_SPECS)
def test_beta_matches_the_oneform_tensor(name):
    # the one-form is the order-1 field: its tensor at x, contracted with y,
    # is beta and saturated no times is beta_y = b(x), as the pass reads them
    field, oneform = _fields(name)
    guarded = partial(calculus.field_jets, field, oneform)
    samples = sampling.sample_points(field.n, 20, 13, domain_check=guarded)
    xs, ys = samples.x, samples.y
    beta = guarded(xs, ys).group(1)
    for k, (x, y) in enumerate(zip(xs, ys)):
        tensor = oneform.tensor_at(x)
        assert tensor.m == 1 and list(tensor.entries) == [(i,) for i in range(1, field.n + 1)]
        for got, want in ((beta.val[k], tensor.contract(y, 0)), (beta.grad_y[k], tensor.contract(y, 1))):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (name, k)


def test_tensor_at_refuses_a_coefficient_that_is_not_finite():
    # (x^2)^3 past the largest float reads inf, (x^1)^2 - (x^2)^2 then inf - inf
    square, cube = Polynomial(2, [((2, 0), 1.0), ((0, 2), -1.0)]), Polynomial(2, [((0, 3), 1.0)])
    field = CoefficientField(2, 2, {(1, 1): Polynomial.constant(2, 1.0), (1, 2): square, (2, 2): cube})
    assert field.tensor_at([1e100, 1e100]).entries == {(1, 1): 1.0, (1, 2): 0.0, (2, 2): 1e300}
    with pytest.raises(NonFiniteResult, match=r"coefficient \(2, 2\) is inf at x=\[1e\+120, 1e\+120\]"):
        field.tensor_at([1e120, 1e120])
    with pytest.raises(NonFiniteResult, match=r"coefficient \(1, 2\) is nan"):
        field.tensor_at([1e200, 1e200])


def test_form_x_derivative_examples():
    # cubic-x: A = (1 + x^1)(y1^3 + y2^3), so dA/dx = (y1^3 + y2^3, 0) and
    # d2A/dx^1 dy = 3 (y1^2, y2^2); constant coefficients have no x-derivatives
    A, coeffs = raw_pass(cubic_x().terms_with(None), pack([0.7, -0.2], [1.0, 2.0], 2))
    A = A.group(0)
    assert A.grad_x.tolist() == [9.0, 0.0]
    assert A.hess_xy.tolist() == [[3.0, 12.0], [0.0, 0.0]]
    assert coeffs.tolist() == [[1.7, 1.7]]
    A = raw_pass(diag_quartic().terms_with(None), pack([0.1, 0.1], [1.0, 2.0], 2))[0].group(0)
    assert not A.grad_x.any() and not A.hess[:2].any()


def test_oneform_examples():
    bf = b_const(2)
    assert [p([3.0, -1.0]) for p in bf.components] == [1.0, 0.0]
    beta = raw_pass(bf.terms_with(None), pack([3.0, -1.0], [1.0, 1.0], 2))[0].group(0)
    np.testing.assert_array_equal(beta.hess_xy, np.zeros((2, 2)))

    bx = b_bx()
    assert [p([0.0, 1.0]) for p in bx.components] == [2.0, 0.0]
    beta = raw_pass(bx.terms_with(None), pack([0.0, 1.0], [3.0, 5.0], 2))[0].group(0)
    jac = beta.hess_xy.T  # [i, k] = db_i/dx^k
    assert jac[0, 1] == 1.0
    assert jac[0, 0] == jac[1, 0] == jac[1, 1] == 0.0
    np.testing.assert_array_equal(beta.grad_y, [2.0, 0.0])
    assert beta.val == pytest.approx(6.0, abs=1e-15)


def test_form_x_derivatives_match_central_differences():
    field = cubic_x()
    x = np.array([0.25, -0.3])
    y = np.array([0.8, 1.4])
    A = raw_pass(field.terms_with(None), pack(x, y, 2))[0].group(0)
    fd = oracles.fd_grad(lambda xx: field.tensor_at(xx).eval(y), x)
    assert np.all(np.abs(A.grad_x - fd) <= 1e-8 * (1 + np.abs(fd)))
    fd_mixed = oracles.fd_mixed(lambda xx, yy: field.tensor_at(xx).eval(yy), x, y)
    np.testing.assert_allclose(A.hess_xy, fd_mixed, atol=1e-7)


def test_oneform_jacobian_matches_central_differences():
    bx = b_bx()
    x = np.array([0.4, 0.9])
    jac = raw_pass(bx.terms_with(None), pack(x, [1.0, 1.0], 2))[0].group(0).hess_xy.T
    for i in range(2):
        fd = oracles.fd_grad(bx.components[i], x)
        np.testing.assert_allclose(jac[i], fd, atol=1e-8)


def test_beta_guard():
    field = diag_quartic()  # A > 0 at every y != 0, so only the one-form floor can fail
    check = partial(calculus.field_jets, field, b_const(2))
    with pytest.raises(DomainError, match="one-form value"):
        check([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError, match="one-form value"):
        calculus.field_jets(field, OneFormField.constant(2, [0.0, 0.0]), [0.0, 0.0], [1.0, 1.0])
    assert check([0.0, 0.0], [2.0, 1.0]).val[1] == 2.0


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(2, [((0, 0), 1.0), ((0, 0), 2.0)])  # duplicate exponents
    with pytest.raises(ValueError):
        Polynomial(2, [((-1, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        Polynomial(2, [((0, 0, 0), 1.0)])
    poly = Polynomial(2, [((2, 1), 3.0)])
    assert poly([2.0, 5.0]) == 60.0
    # exact x-derivatives come from the field engine: A = poly(x) y1^2
    A = raw_pass(CoefficientField(2, 2, {(1, 1): poly}).terms_with(None), pack([2.0, 5.0], [1.0, 0.0], 2))[0].group(0)
    assert A.grad_x.tolist() == [60.0, 12.0]  # (6 x1 x2, 3 x1^2)


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField(2, 3, {(2, 1, 1): Polynomial.constant(2, 1.0)})
    with pytest.raises(DimensionMismatch):
        CoefficientField(2, 3, {(1, 1): Polynomial.constant(2, 1.0)})
    # an entry polynomial in three variables for a field in two: refused at
    # construction, not at the first pass
    with pytest.raises(DimensionMismatch, match="wrong arity"):
        CoefficientField(2, 3, {(1, 1, 1): Polynomial(3, [((0, 0, 0), 1.0)])})
    # a key that is not a tuple is another dict key with the same canonical index
    one = Polynomial.constant(2, 1.0)
    with pytest.raises(ValueError, match=r"^duplicate canonical index \(1, 2\)$"):
        CoefficientField(2, 2, {(1, 2): one, range(1, 3): one})
    with pytest.raises(DimensionMismatch, match="^1 components for dimension 2$"):
        OneFormField(2, [one])
    with pytest.raises(DimensionMismatch, match=r"^entry \(2,\) polynomial has wrong arity$"):
        OneFormField(2, [one, Polynomial.constant(3, 1.0)])
    with pytest.raises(DimensionMismatch, match="^point has length 3, expected 2$"):
        pack([0.0, 0.0, 0.0], [1.0, 1.0], 2)
    with pytest.raises(DimensionMismatch, match="^vector has length 1, expected 2$"):
        pack([0.0, 0.0], [[1.0], [1.0]], 2)
    field = cubic_x()
    with pytest.raises(DimensionMismatch):
        field.tensor_at([0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_one_point_against_a_stack_is_the_point_tiled(name):
    # pack broadcasts x (n,) against y (N, n): the pass is the one at x repeated
    doc, _, (xs, ys) = spec_samples(name, 12, seed=9)
    x = xs[0]
    broadcast = calculus.field_jets(doc.field, doc.oneform, x, ys).block
    tiled = calculus.field_jets(doc.field, doc.oneform, np.tile(x, (len(ys), 1)), ys).block
    assert broadcast.shape == tiled.shape == (len(ys),) + tiled.shape[1:]
    assert np.array_equal(broadcast, tiled)


@pytest.mark.parametrize("name", ONE_FORM_SPECS)
def test_pair_pass_matches_single_field_passes(name):
    # the fused table of (A, beta) must give each group exactly what the
    # form-only and the one-form-only tables give, guard scales included
    doc, accepted, (xs, ys) = spec_samples(name, 12, seed=8)
    pair = doc.field.terms_with(doc.oneform)
    for x, y in [accepted[0], (xs, ys)]:
        v = pack(x, y, doc.n)
        jets, c = raw_pass(pair, v)
        for g, table in enumerate((doc.field.terms_with(None), doc.oneform.terms_with(None))):
            single, c_single = raw_pass(table, v)
            for key in ("val", "grad", "hess"):
                assert np.array_equal(
                    getattr(jets.group(g), key), getattr(single.group(0), key)
                ), (name, g, key)
            assert np.array_equal(
                np.abs(c[..., g, :]).max(axis=-1), np.abs(c_single[..., 0, :]).max(axis=-1)
            ), (name, g)


def test_pair_pass_guards():
    # the form floor of the pair's pass is the floor of the form's own pass
    field, oneform = cubic_x(), b_bx()
    x, y = [-1.0, 0.5], [1.0, 1.0]  # A = 0, beta = 1.5
    with pytest.raises(DomainError) as fused:
        calculus.field_jets(field, oneform, x, y)
    with pytest.raises(DomainError) as single:
        calculus.field_jets(field, None, x, y)
    assert str(fused.value) == str(single.value)
    with pytest.raises(DomainError, match="one-form value"):  # beta = 0
        calculus.field_jets(field, oneform, [0.5, -1.0], [1.0, 1.0])
    # at x = (-1, -1) both the form coefficient 1 + x^1 and beta's 1 + x^2
    # vanish: every pass names the form floor, which it checks first
    guarded = partial(calculus.field_jets, field, oneform)
    for value_pass in (guarded, calculus.kropina_norm(field, oneform, 3)):
        with pytest.raises(DomainError, match="form value .* at or below floor"):
            value_pass([-1.0, -1.0], [1.0, 1.0])
    # on a stack, the lowest refused sample decides, with the first floor it
    # fails: sample 1 has beta = 0, sample 3 a negative form
    xs = np.array([[0.1, 0.2], [0.5, -1.0], [0.0, 0.3], [-2.0, 0.1]])
    with pytest.raises(DomainError, match="one-form value") as exc:
        guarded(xs, np.ones((4, 2)))
    assert exc.value.sample == 1
    with pytest.raises(DomainError, match="form value .* at or below floor") as exc:
        guarded(xs[[0, 2, 3]], np.ones((3, 2)))
    assert exc.value.sample == 2


def _random_fields():
    """n = 3, m = 3: every entry and one-form component a random polynomial of
    x-degree 2 or 3 (x1^2 x2 in each, the rest drawn from degree <= 3)."""
    rng = np.random.default_rng(11)
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3 and e != (2, 1, 0)]

    def poly():
        drawn = rng.choice(len(exps), size=4, replace=False)
        return Polynomial(3, [((2, 1, 0), rng.uniform(-1, 1))] + [
            (exps[i], rng.uniform(-1, 1)) for i in drawn])

    keys = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 3), (3, 3, 3)]
    return CoefficientField(3, 3, {key: poly() for key in keys}), OneFormField(3, [poly() for _ in range(3)])


def _fields(name):
    if name == "random":
        return _random_fields()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RiemannianOrderWarning)
        doc = load_spec(FIXTURE_DIR / f"{name}.json")
    return doc.field, doc.oneform


def _outcome(fn, x, y):
    """None where fn accepts the draw, else the error's type, message and sample."""
    try:
        fn(x, y)
    except DomainError as exc:
        return type(exc), str(exc), exc.sample
    return None


@pytest.mark.parametrize("name", ONE_FORM_SPECS + ("random",))
def test_value_is_read_off_the_derivative_pass(name):
    # the sampler reads the guarded pass per row (errors.recorded), and every
    # later pass raises from it: each row of a stack is refused at the floor
    # that draw alone is refused at, and the stack raises at the draw a loop
    # over the draws meets first, so a draw at a floor cannot be accepted by
    # one and refused by the other.  (The values a message prints may differ
    # in the last bits: a row's pass depends on the length of its stack.)
    field, oneform = _fields(name)
    rng = np.random.default_rng(5)
    # y in a box around 0 so that the floors refuse some of the draws, now and
    # then y = 0, where the form is 0, and y = (b_2, -b_1, 0), where beta is 0
    xs, ys = rng.uniform(-1.5, 1.5, (40, field.n)), rng.uniform(-1.0, 1.0, (40, field.n))
    ys[::7] = 0.0
    for k in range(3, 40, 4):
        ys[k] = 0.0
        ys[k, :2] = oneform.components[1](xs[k]), -oneform.components[0](xs[k])

    def floor(exc):
        return exc and (exc[0], exc[1].split(" value")[0])

    outcomes = set()
    for paired in (oneform, None):
        guarded = partial(calculus.field_jets, field, paired)
        alone = [floor(_outcome(guarded, x, y)) for x, y in zip(xs, ys)]
        for start in (0, 1):
            _, record = recorded(guarded, xs[start:], ys[start:])
            rows = [floor((type(record[i]), str(record[i]))) if i in record else None
                    for i in range(len(xs) - start)]
            assert rows == alone[start:], name
            stack, loop = (fn(guarded, xs[start:], ys[start:]) for fn in (_outcome, oracles.first_failure))
            assert (floor(stack), stack[2]) == (floor(loop), loop[2]), name
        outcomes |= {got and got[1] for got in alone}
    # Berwald-Moore's A = y1 y2 y3 y4 vanishes wherever its beta = y1 does
    assert outcomes - {"one-form"} == {None, "form"}, (name, outcomes)
    assert ("one-form" in outcomes) == (name != "berwald_moore"), (name, outcomes)


@pytest.mark.parametrize("name", ("riemann_identity",) + ONE_FORM_SPECS + ("random",))
def test_pass_matches_two_factor_oracle(name):
    # the one-matrix pass against the coefficients-times-monomials evaluator,
    # on one point and on a stack, for the pair (A, beta) and each field alone
    field, oneform = _fields(name)
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1.0, 1.0, (6, field.n)), rng.uniform(0.1, 2.0, (6, field.n))
    for groups in ([field.term_group, oneform.term_group], [field.term_group], [oneform.term_group]):
        table = TermTable(groups, field.n)
        for x, y in ((xs[0], ys[0]), (xs, ys)):
            jets, c = raw_pass(table, pack(x, y, field.n))
            assert jets.hess.shape[-3:] == (len(groups), 2 * field.n, 2 * field.n)
            assert np.array_equal(jets.hess, jets.hess.swapaxes(-1, -2)), name
            for k, (xk, yk) in enumerate(zip(np.reshape(x, (-1, field.n)), np.reshape(y, (-1, field.n)))):
                at = (k,) if np.ndim(x) == 2 else ()
                ref = oracles.two_factor_pass(groups, field.n, xk, yk)
                for got, want in zip((jets.val[at], jets.grad[at], jets.hess[at]), ref):
                    for g in range(len(groups)):
                        bound = 1e-13 * np.abs(want[g]).max()
                        assert np.all(np.abs(got[g] - want[g]) <= bound), (name, len(groups), g)
                for g, polys in enumerate(group[0] for group in groups):
                    exact = [poly(xk) for poly in polys]
                    np.testing.assert_allclose(c[at][g, : len(polys)], exact, rtol=1e-14, atol=0)
                    assert not c[at][g, len(polys):].any()
                    if all(coeff == 0.0 or not any(e) for poly in polys for e, coeff in poly.monomials):
                        # no x-dependence: the x-blocks are 0, not rounding noise
                        n = field.n
                        assert not jets.grad[at][g, :n].any() and not jets.hess[at][g, :n].any()
                        assert not jets.hess[at][g, :, :n].any()


def test_single_point_floors_decide_as_the_stack_guards():
    # TermTable.refusals clears one point by its fast form first; across each
    # floor it must accept and refuse exactly where its array guard decides
    # the same point as a stack of one
    field, oneform = cubic_x(), b_bx()
    table = field.terms_with(oneform)
    # A = (1 + x^1)(y1^3 + y2^3) crosses its floor near y2 = -1 + 9.4e-13,
    # beta = (1 + x^2) y1 near y1 = 1e-12
    cases = [([0.3, 0.2], [1.0, -1.0 + d]) for d in np.linspace(8e-13, 1.1e-12, 41)]
    cases += [([0.3, -0.5], [d, 1.0]) for d in np.linspace(0.8e-12, 1.2e-12, 41)]
    # a finite pass whose ||y||^3 in the form floor is past the largest float
    cases += [([-0.9, 0.0], [4e102, 4e102])]
    outcomes = set()
    for x, y in cases:
        v = pack(x, y, 2)
        results = []
        for point in (v, v[None]):
            with np.errstate(all="ignore"):
                got = _outcome(partial(table.refusals, m=3), table.block(point), point)
            results.append(got and got[:2])
        assert results[0] == results[1], (x, y)
        outcomes.add(results[0] and results[0][1].split(" value")[0])
    assert outcomes == {None, "form", "one-form"}
    assert "floor inf" in results[0][1]


def test_norm_matches_numpy_norm_bit_for_bit():
    # projective_residual measures lengths with norm; np.linalg.norm gave the
    # same floats on these shapes, so its readings did not move
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for count in (1, 2, 7, 60, 100):
            scale = 10.0 ** rng.integers(-3, 4, size=(count, 1))
            v = scale * rng.uniform(-2.0, 2.0, size=(count, n))
            assert np.array_equal(norm(v), np.linalg.norm(v, axis=-1)), (n, count)
