"""Independent finite-difference oracles for golden values.

Everything here is deliberately written against plain closures of the fixture
functions, not against the package's calculus layer, so golden values frozen
from these routines adjudicate the implementation from the outside.  The
rejection sampler is kept here too, as the loop over attempts that the block
sampler must reproduce, and so are the `records` of the --json reports built
as dicts, the reference for the CLI's record layouts, the printed
closed-form inverses transcribed entry by entry in Python floats, and the
spray solved with g formed before the solve (read off the calculus pass),
which the spray that halves after the solve must equal bit for bit.
"""

import math

import numpy as np

from mrootfinsler.errors import DomainError, FinslerError

EPS = float(np.finfo(float).eps)


# -- fixture functions as plain closures ------------------------------------

def diag_quartic_A(x, y):
    return y[0] ** 4 + y[1] ** 4


def berwald_moore_A(x, y):
    return y[0] * y[1] * y[2] * y[3]


def cubic_x_A(x, y):
    return (1.0 + x[0]) * (y[0] ** 3 + y[1] ** 3)


def mixed_quartic_A(x, y):
    return (
        y[0] ** 4 + y[1] ** 4 + y[2] ** 4
        + 6 * 0.25 * y[0] ** 2 * y[1] ** 2
        + 12 * 0.1 * y[0] * y[1] * y[2] ** 2
    )


def const_b(values):
    values = np.asarray(values, dtype=float)
    return lambda x: values


def bx_b(x):
    return np.array([1.0 + x[1], 0.0])


def energy(A_fn, m):
    return lambda x, y: A_fn(x, y) ** (2.0 / m)


def kropina_energy(A_fn, b_fn, m):
    def fn(x, y):
        beta = float(np.asarray(b_fn(x)) @ np.asarray(y, dtype=float))
        return A_fn(x, y) ** (4.0 / m) / beta ** 2
    return fn


def kropina_norm(A_fn, b_fn, m):
    def fn(x, y):
        beta = float(np.asarray(b_fn(x)) @ np.asarray(y, dtype=float))
        return A_fn(x, y) ** (2.0 / m) / beta
    return fn


# -- fourth-order central differences ---------------------------------------

def fd_grad(fn, v, h0=1e-5):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.size)
    for i in range(v.size):
        h = h0 * (1.0 + abs(v[i]))
        def f(s):
            w = v.copy(); w[i] += s
            return fn(w)
        out[i] = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
    return out


def fd_hess(fn, v, h0=5e-4):
    v = np.asarray(v, dtype=float)
    n = v.size
    out = np.zeros((n, n))
    for i in range(n):
        hi = h0 * (1.0 + abs(v[i]))
        def fi(s):
            w = v.copy(); w[i] += s
            return fn(w)
        out[i, i] = (-fi(2 * hi) + 16 * fi(hi) - 30 * fi(0.0)
                     + 16 * fi(-hi) - fi(-2 * hi)) / (12 * hi * hi)
        for j in range(i + 1, n):
            hj = h0 * (1.0 + abs(v[j]))
            def fij(si, sj):
                w = v.copy(); w[i] += si; w[j] += sj
                return fn(w)
            val = (fij(hi, hj) - fij(hi, -hj) - fij(-hi, hj) + fij(-hi, -hj)) / (4 * hi * hj)
            val2 = (fij(hi / 2, hj / 2) - fij(hi / 2, -hj / 2)
                    - fij(-hi / 2, hj / 2) + fij(-hi / 2, -hj / 2)) / (hi * hj)
            out[i, j] = out[j, i] = (4 * val2 - val) / 3
    return out


def fd_mixed(fn, x, y, h0=5e-4):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros((x.size, y.size))
    for k in range(x.size):
        hk = h0 * (1.0 + abs(x[k]))
        for l in range(y.size):
            hl = h0 * (1.0 + abs(y[l]))
            def f(sk, sl):
                xs = x.copy(); xs[k] += sk
                ys = y.copy(); ys[l] += sl
                return fn(xs, ys)
            val = (f(hk, hl) - f(hk, -hl) - f(-hk, hl) + f(-hk, -hl)) / (4 * hk * hl)
            val2 = (f(hk / 2, hl / 2) - f(hk / 2, -hl / 2)
                    - f(-hk / 2, hl / 2) + f(-hk / 2, -hl / 2)) / (hk * hl)
            out[k, l] = (4 * val2 - val) / 3
    return out


# -- composite oracles -------------------------------------------------------

def oracle_spray(E, x, y):
    """Brute-force spray: quarter metric-inverse of the standard bracket."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = 0.5 * fd_hess(lambda yy: E(x, yy), y)
    rhs = y @ fd_mixed(E, x, y) - fd_grad(lambda xx: E(xx, y), x)
    return 0.25 * np.linalg.solve(g, rhs)


def spray_solving_g(jet, y):
    """0.25 g^-1 (y H_xy - E_x) with g = H_yy / 2 formed before the solve, read
    off a derivative pass of E (calculus.derivatives), per sample of a stack."""
    rhs = (y[..., None, :] @ jet.hess_xy)[..., 0, :] - jet.grad_x
    return 0.25 * np.linalg.solve(0.5 * jet.hess_yy, rhs[..., None])[..., 0]


def oracle_wedge_residual(E_base, E_bar, x, y):
    y = np.asarray(y, dtype=float)
    yu = y / np.linalg.norm(y)
    D = oracle_spray(E_bar, x, yu) - oracle_spray(E_base, x, yu)
    wedge = 0.0
    for i in range(yu.size):
        for j in range(i + 1, yu.size):
            wedge = max(wedge, abs(D[i] * yu[j] - D[j] * yu[i]))
    return wedge / (1.0 + np.linalg.norm(D))


def oracle_dually_flat_residual(E_bar, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    defect = y @ fd_mixed(E_bar, x, y) - 2.0 * fd_grad(lambda xx: E_bar(xx, y), x)
    return float(np.max(np.abs(defect))) / (1.0 + abs(E_bar(x, y)))


def oracle_proj_flat_residual(Fbar, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    defect = y @ fd_mixed(Fbar, x, y) - fd_grad(lambda xx: Fbar(xx, y), x)
    return float(np.max(np.abs(defect))) / (1.0 + abs(Fbar(x, y)))


# -- the derivative pass as two factors -------------------------------------

def _monomial_jet(exps, v):
    """v^e with its gradient and Hessian at one point v, by exponent decrement."""
    exps, v = np.asarray(exps), np.asarray(v, dtype=float)
    unit = np.eye(len(v), dtype=int)

    def power(e):
        return 0.0 if (e < 0).any() else float(np.prod(v ** e))

    grad = np.array([exps[i] * power(exps - unit[i]) for i in range(len(v))])
    hess = np.array([
        [exps[i] * (exps[j] - (i == j)) * power(exps - unit[i] - unit[j]) for j in range(len(v))]
        for i in range(len(v))
    ])
    return power(exps), grad, hess


def two_factor_pass(groups, n, x, y):
    """The pass of a fields.TermTable over `groups` at one point, as two
    factors: each coefficient c_t and its x-derivatives, times each weighted
    y-monomial w_t y^e_t and its y-derivatives, summed term by term.  Returns
    the value (G,), the gradient (G, 2n) and the Hessian (G, 2n, 2n) over (x, y)."""
    val, grad, hess = np.zeros(len(groups)), np.zeros((len(groups), 2 * n)), np.zeros(
        (len(groups), 2 * n, 2 * n))
    for g, (polys, keys, _) in enumerate(groups):
        for poly, key in zip(polys, keys):
            c0, cx, cxx = 0.0, np.zeros(n), np.zeros((n, n))
            for exps, coeff in poly.monomials:
                m0, m1, m2 = _monomial_jet(exps, x)
                c0, cx, cxx = c0 + coeff * m0, cx + coeff * m1, cxx + coeff * m2
            weight = math.factorial(len(key))
            for i in set(key):
                weight //= math.factorial(key.count(i))
            y0, y1, y2 = (weight * d for d in _monomial_jet([key.count(i) for i in range(1, n + 1)], y))
            val[g] += c0 * y0
            grad[g] += np.concatenate((cx * y0, c0 * y1))
            hess[g] += np.block([[cxx * y0, np.outer(cx, y1)], [np.outer(y1, cx), c0 * y2]])
    return val, grad, hess


# -- the chain rule as the product rule ---------------------------------------

def product_rule_power(val, grad, hess, exponents, absolute=False):
    """A^p (exponents (p,)) or A^p beta^q ((p, q)) with gradient and Hessian,
    from a pass of A or of (A, beta) given as arrays with a group axis
    (val (..., G), grad (..., G, 2n), hess (..., G, 2n, 2n)): each group raised
    alone with its two derivatives, then the product rule joins the two.  The
    reference for calculus.power, which folds the same rule into per-sample
    coefficients.  With absolute=True every input and factor enters by its
    magnitude: the sums of |terms| that rounding errors scale with."""
    mag = np.abs if absolute else (lambda t: t)
    out = []
    for g, e in enumerate(exponents):
        v, d, h = mag(val[..., g]), mag(grad[..., g, :]), mag(hess[..., g, :, :])
        f, d1, d2 = v ** e, mag(e * v ** (e - 1.0)), mag(e * (e - 1.0) * v ** (e - 2.0))
        out.append((f, d1[..., None] * d,
                    d1[..., None, None] * h + d2[..., None, None] * _outer(d, d)))
    if len(exponents) == 1:
        return out[0]
    (f0, g0, h0), (f1, g1, h1) = out
    cross = _outer(g0, g1)
    return (f0 * f1, f1[..., None] * g0 + f0[..., None] * g1,
            f1[..., None, None] * h0 + f0[..., None, None] * h1
            + (cross + np.swapaxes(cross, -1, -2)))


# -- the split's tail differentiated by hand --------------------------------

def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def hand_chained_tail_x_derivatives(A, beta, m):
    """[..., k, j, l] = d X_jl / dx^k of the verbatim tail of spray.transform_tail,
    chained term by term from the pass groups A and beta (Jets): the
    hand-written reference for its complex-step derivative."""
    n = A.grad_x.shape[-1]
    A_i, b = A.grad_y / m, beta.grad_y
    A_x, A_i_x, b_jac, beta_x = A.grad_x, A.hess_xy / m, np.swapaxes(beta.hess_xy, -1, -2), beta.grad_x
    A, beta = A.val[..., None, None], beta.val[..., None, None]
    qa = (4.0 - m) / m
    qb = 4.0 / m
    qc = (4.0 - 2.0 * m) / m
    cross = _outer(A_i, b) + _outer(b, A_i)
    bb = _outer(b, b)
    aa = _outer(A_i, A_i)
    out = np.zeros(A_i.shape[:-1] + (n, n, n))
    for k in range(n):
        Ax = A_x[..., k, None, None]
        Aix = A_i_x[..., k, :]
        bx = b_jac[..., :, k]
        betax = beta_x[..., k, None, None]
        cross_x = _outer(Aix, b) + _outer(A_i, bx) + _outer(bx, A_i) + _outer(b, Aix)
        bb_x = _outer(bx, b) + _outer(b, bx)
        aa_x = _outer(Aix, A_i) + _outer(A_i, Aix)
        out[..., k, :, :] = (
            -4 * (qa * A ** (qa - 1) * Ax * cross + A ** qa * cross_x) / beta ** 3
            + 12 * A ** qa * cross * betax / beta ** 4
            + qb * A ** (qb - 1) * Ax * bb / beta ** 4
            + (2 + A ** qb) * bb_x / beta ** 4
            - 4 * (2 + A ** qb) * bb * betax / beta ** 5
            + 4 * (qc * A ** (qc - 1) * Ax * aa + A ** qc * aa_x) / beta ** 2
            - 8 * A ** qc * aa * betax / beta ** 3
        )
    return out


# -- the printed closed-form inverses, entry by entry ----------------------

def printed_closed_inverses(F, beta, b, A_inv, y, m):
    """The closed and the split inverse of the transformed fundamental tensor
    at one sample, as printed, in Python floats: F and beta are numbers, b and
    y lists, A_inv nested lists (the inverse second contraction).  m != 4."""
    n = len(y)
    b_up = [sum(A_inv[i][j] * b[j] for j in range(n)) for i in range(n)]
    b2 = sum(b[i] * b_up[i] for i in range(n))
    tau = F / beta
    w = F ** (m - 2) / (2 * tau ** 2 * (m - 1))
    c2 = F ** (m - 3) * beta * b2 / (2 * tau * (m - 1))
    v = (m - 4) * beta / (2 * F ** m)
    delta = -8 * F ** 4 / (beta ** 4 * (m - 4))
    q = delta * w ** 2 / (1 + delta * c2)
    d2 = w * (v * beta + v ** 2 * F ** m
              + (b2 + v * beta) * (1 - delta * w * (1 + v) / (1 + delta * c2)))
    bracket = (m - 4) - 8 * tau ** 4 * d2
    p0 = 4 * F ** m * (1 + q * (q * (1 + v) - (3 + v))) / (beta ** 2 * bracket)
    p1 = (8 * (m - 1) ** 2 * tau ** 4 + 2 * delta * F ** (2 * (m - 2))
          + delta * F ** (m - 4) * (m - 4) * beta) / (
        4 * tau ** 4 * (m - 1) ** 2 + delta * F ** (m - 2) * b2 * tau ** 4)
    p2 = (m - 4) ** 2 / (2 * F ** 6 * bracket)
    p3 = ((m - 4) ** 2 * (m - 1) * tau ** 2 - (m - 2) * bracket * beta ** 4) / (
        2 * F ** 2 * tau ** 2 * beta ** 4 * (m - 1) * bracket)
    mixed = 2 * beta ** 3 * (m - 4) * p1 / (
        F ** 2 * (m - 1) * (beta ** 4 * (m - 4) - 8 * F ** 4 * d2))

    closed = [[0.0] * n for _ in range(n)]
    split = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            common = p0 * b_up[i] * b_up[j] + mixed * (b_up[i] * y[j] + y[i] * b_up[j])
            closed[i][j] = (F ** (m - 2) * A_inv[i][j] / (2 * tau ** 2 * (m - 1))
                            + common + p2 * y[i] * y[j])
            g_inv = (F ** (m - 2) * A_inv[i][j] / (m - 1)
                     + (m - 2) * y[i] * y[j] / ((m - 1) * F ** 2))
            split[i][j] = g_inv / (2 * tau ** 2) + common + p3 * y[i] * y[j]
    return closed, split


# -- the sampler as a loop over attempts ------------------------------------

def sample_points_loop(n, count, seed, x_box, y_box, domain_check, attempt_factor):
    """The rejection sampler one attempt at a time: x then y from rng.uniform,
    each draw checked alone.  Returns the accepted (x, y) pairs and the
    rejected (x, y, reason) draws."""
    rng = np.random.default_rng(seed)
    accepted, rejected = [], []
    attempts = 0
    while len(accepted) < count and attempts < attempt_factor * count:
        attempts += 1
        x = rng.uniform(x_box[0], x_box[1], size=n)
        y = rng.uniform(y_box[0], y_box[1], size=n)
        try:
            domain_check(x, y)
        except DomainError as exc:
            rejected.append((x, y, str(exc)))
            continue
        accepted.append((x, y))
    return accepted, rejected


# -- a loop over the samples of a stack -------------------------------------

def first_failure(evaluate, x, y):
    """What a loop over the samples of the stacks x, y (N, n) meets first:
    evaluate(x[i], y[i]) one sample at a time, and for the first sample that
    raises a FinslerError, (its type, its message, i); None when none does."""
    for i, (xi, yi) in enumerate(zip(x, y)):
        try:
            evaluate(xi, yi)
        except FinslerError as exc:
            return type(exc), str(exc), i
    return None


# -- the records of --json reports as dicts ---------------------------------

def _finite_or_none(value):
    value = float(value)
    return value if math.isfinite(value) else None


def _vector(values):
    return [_finite_or_none(v) for v in values]


def verify_records(x, y, rows):
    """The records of `verify --json` for the stacks x, y (N, n) and the
    per-sample ResidualRows: every row at every sample, null where a value
    is not finite, and null x/y/maxima where the row is undefined."""
    records = []
    for i, (xi, yi) in enumerate(zip(x, y)):
        xi, yi = _vector(xi), _vector(yi)
        records.append({"x": xi, "y": yi, "rows": [
            {
                "formula": row.formula,
                "max_abs": None if row.max_abs is None else _finite_or_none(row.max_abs[i]),
                "max_rel": None if row.max_abs is None else _finite_or_none(row.max_rel[i]),
                "x": None if row.max_abs is None else xi,
                "y": None if row.max_abs is None else yi,
                "note": row.note,
            }
            for row in rows
        ]})
    return records


def verify_rows(x, y, rows):
    """The rows of `verify --json` for the stacks x, y (N, n) and the
    per-sample ResidualRows: each row's maxima and their point, at the
    sample of its largest max_abs (np.argmax: the earliest of a tie), null
    where a value is not finite, and null x/y/maxima where the row is
    undefined."""
    shaped = []
    for row in rows:
        i = None if row.max_abs is None else int(np.argmax(row.max_abs))
        shaped.append({
            "formula": row.formula,
            "max_abs": None if i is None else _finite_or_none(row.max_abs[i]),
            "max_rel": None if i is None else _finite_or_none(row.max_rel[i]),
            "x": None if i is None else _vector(x[i]),
            "y": None if i is None else _vector(y[i]),
            "note": row.note,
        })
    return shaped


def check_records(x, y, residuals):
    """The records of `check proj-related --json`: the residual at every sample."""
    return [
        {"x": _vector(xi), "y": _vector(yi), "residual": _finite_or_none(r)}
        for xi, yi, r in zip(x, y, residuals)
    ]
