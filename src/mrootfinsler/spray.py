"""Spray coefficients, the closed-form decomposition, and geodesic integration.

Sprays come from G^i = (1/4) g^il ( [E]_{x^k y^l} y^k - [E]_{x^l} ) with E the
squared norm, using the oracle's derivatives and a numeric inverse of the
oracle Hessian; the same routine serves the base and the transformed metric.
Projective relatedness is decided by the wedge of the spray difference with y,
which is zero exactly when the difference is proportional to y.  The closed-
form P/Q split is evaluated verbatim (both readings of its ambiguous scalar)
and only ever reported.

Both sprays and every x-derivative the split needs come from one derivative
pass of A and beta (calculus.field_jets); only the verbatim tail X and its
x-derivatives are still chained by hand, because the printed tail may be
misprinted and no identity may be applied to it.  Everything but the
geodesic integrator also takes a stack of samples (N, n): the sprays are then
one batched solve, and the split and the wedge hold one entry per sample.

Geodesic convention: the integrated system is x'' = -G(x, x') with G as above.
That is not the geodesic equation of this quarter-factor spray, which is
x'' + 2G = 0; scaling a spray by a constant changes its curves, not only their
speed.  Integrating x'' = -2G is open work (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import DomainError, NonFiniteResult, SingularMatrix, raise_first
from .fields import CoefficientField, OneFormField, dot, matvec, outer, vecmat
from .kropina import AuxScalars, aux_scalars_from
from .metric import COND_LIMIT, metric_point

NAN = float("nan")


def spray_coeffs(energy: calculus.ScalarFunction, x, y) -> np.ndarray:
    """Quarter g-inverse of the standard spray bracket for the given energy."""
    y = np.asarray(y, dtype=float)
    return _spray(calculus.derivatives(energy, x, y), y)


def _spray(jet: calculus.Jet, y: np.ndarray) -> np.ndarray:
    g = 0.5 * jet.hess_yy
    cond = np.linalg.cond(g)
    raise_first(
        ~np.isfinite(cond) | (cond > COND_LIMIT), SingularMatrix,
        "fundamental tensor condition number {:.3e}", cond,
    )
    rhs = vecmat(y, jet.hess_xy) - jet.grad_x
    return 0.25 * np.linalg.solve(g, rhs[..., None])[..., 0]


# ---------------------------------------------------------------------------
# contractions and their x-derivatives for the closed-form split
# ---------------------------------------------------------------------------

@dataclass
class _Bundle:
    """Contractions and their exact x-derivatives at (x, y), per sample."""

    A: float
    A_i: np.ndarray
    A_x: np.ndarray      # [..., k] = dA/dx^k
    A_i_x: np.ndarray    # [..., k, i] = dA_i/dx^k
    b: np.ndarray
    b_jac: np.ndarray    # [..., i, k] = db_i/dx^k
    beta: float
    beta_x: np.ndarray   # [..., k] = dbeta/dx^k


def _contractions(A: calculus.Jet, beta: calculus.Jet, m: int) -> _Bundle:
    """Read the bundle off a pass of A and beta: A_i = A_y / m, b = beta_y."""
    return _Bundle(
        A.val, A.grad_y / m, A.grad_x, A.hess_xy / m,
        beta.grad_y, np.swapaxes(beta.hess_xy, -1, -2), beta.val, beta.grad_x,
    )


def _metric_bracket(E: calculus.Jet, y: np.ndarray) -> np.ndarray:
    """V_l = sum_jk [dg_jl/dx^k - dg_jk/dx^l] y^j y^k from the pass of F^2.

    By the Euler identities g_jl y^j = [F^2]_{y^l} / 2 and g_jk y^j y^k = F^2,
    which hold because the base closed form of g is exact, this is
    (y H_xy[F^2])_l / 2 - [F^2]_{x^l}.
    """
    return 0.5 * vecmat(y, E.hess_xy) - E.grad_x


def transform_tail(bundle: _Bundle, m: int) -> np.ndarray:
    """The non-base tail of the split transformed tensor, evaluated verbatim."""
    A_i, b = bundle.A_i, bundle.b
    A, beta = bundle.A[..., None, None], bundle.beta[..., None, None]
    qa = (4.0 - m) / m
    qc = (4.0 - 2.0 * m) / m
    cross = outer(A_i, b) + outer(b, A_i)
    return (
        -4 * A ** qa * cross / beta ** 3
        + (2 + A ** (4.0 / m)) * outer(b, b) / beta ** 4
        + 4 * A ** qc * outer(A_i, A_i) / beta ** 2
    )


def transform_tail_x_derivatives(bundle: _Bundle, m: int) -> np.ndarray:
    """Exact [..., k, j, l] = d X_jl / dx^k for the verbatim tail above."""
    A_i, b = bundle.A_i, bundle.b
    A, beta = bundle.A[..., None, None], bundle.beta[..., None, None]
    qa = (4.0 - m) / m
    qb = 4.0 / m
    qc = (4.0 - 2.0 * m) / m
    cross = outer(A_i, b) + outer(b, A_i)
    bb = outer(b, b)
    aa = outer(A_i, A_i)
    n = A_i.shape[-1]
    out = np.zeros(A_i.shape[:-1] + (n, n, n))
    for k in range(n):
        Ax = bundle.A_x[..., k, None, None]
        Aix = bundle.A_i_x[..., k, :]
        bx = bundle.b_jac[..., :, k]
        betax = bundle.beta_x[..., k, None, None]
        cross_x = outer(Aix, b) + outer(A_i, bx) + outer(bx, A_i) + outer(b, Aix)
        bb_x = outer(bx, b) + outer(b, bx)
        aa_x = outer(Aix, A_i) + outer(A_i, Aix)
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


# ---------------------------------------------------------------------------
# closed-form decomposition
# ---------------------------------------------------------------------------

@dataclass
class SprayPoint:
    """Oracle sprays plus the verbatim closed-form split at (x, y), per sample."""

    G: np.ndarray             # base spray
    Gbar: np.ndarray          # transformed spray
    D: np.ndarray             # Gbar - G
    X: np.ndarray             # verbatim tail of the split tensor
    omega: np.ndarray         # x-gradient of twice the squared norm ratio
    P_closed: float           # verbatim scalar part (NaN when degenerate)
    Q_closed: np.ndarray      # verbatim vector part, printed scalar reading
    Q_closed_alt: np.ndarray  # same with the alternative scalar reading
    Q_lead: np.ndarray        # first half of Q (one-form direction, printed reading)
    Q_inv: np.ndarray         # second half of Q (inverse-contraction part)
    aux: AuxScalars
    degenerate_order4: bool


def pq_decomposition(
    field: CoefficientField, oneform: OneFormField, m: int, x, y, jets=None, base=None
) -> SprayPoint:
    """Oracle sprays always; closed-form P and Q verbatim where defined.

    The closed Q is printed with a scalar that collides with the one defined
    by the inverse-tensor rewrite; both readings are returned (`Q_closed` uses
    the scalar as printed in the decomposition, `Q_closed_alt` the one from
    the expansion it descends from).  `jets`, the pass (A, beta), and `base`,
    the MetricPoint of the same samples, are reused when the caller has them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A, beta_jet = calculus.field_jets(field, oneform, x, y) if jets is None else jets
    if base is None:
        base = metric_point(field, m, x, y, A)

    E = calculus.base_energy(field, m).compose(A, beta_jet)
    G = _spray(E, y)
    Gbar = _spray(calculus.kropina_energy(field, oneform, m).compose(A, beta_jet), y)
    D = Gbar - G

    bundle = _contractions(A, beta_jet, m)
    X = transform_tail(bundle, m)
    # omega = 2 d(tau^2)/dx with tau^2 = A^(2/m) beta^(-2)
    omega = 2.0 * calculus.power(A, beta_jet, 2.0 / m, -2.0).grad_x

    b2 = dot(bundle.b, matvec(base.A_inv, bundle.b))
    aux = aux_scalars_from(base.F, bundle.beta, b2, m)

    if aux.degenerate_order4:
        nanv = np.full(y.shape, NAN)
        return SprayPoint(
            G, Gbar, D, X, omega, NAN,
            nanv, nanv.copy(), nanv.copy(), nanv.copy(), aux, True,
        )

    dX = transform_tail_x_derivatives(bundle, m)
    g = base.g
    tau = aux.tau[..., None]

    # W_l = sum_jk [2 w_k g_jl - w_l g_jk + 2 dX_jl/dx^k - dX_jk/dx^l] y^j y^k
    gy = matvec(g, y)
    ygy = dot(y, gy)[..., None]
    dX_contr = np.einsum("...k,...j,...kjl->...l", y, y, dX)
    dX_swap = np.einsum("...j,...ljk,...k->...l", y, dX, y)
    W = 2 * dot(omega, y)[..., None] * gy - omega * ygy + 2 * dX_contr - dX_swap
    S = 2 * tau ** 2 * _metric_bracket(E, y) + W

    F = base.F[..., None]
    p0, p1, p2, p3 = (v[..., None] for v in (aux.p0, aux.p1, aux.p2, aux.p3))
    b_up = matvec(base.A_inv, bundle.b)
    P_closed = 0.25 * dot(p1 * b_up + p3 * y, S) + (
        (m - 2) / (4 * aux.tau ** 2 * base.F ** 2 * (m - 1))
    ) * dot(y, W)
    q_lead = 0.25 * b_up * dot(p2 * b_up + p1 * y, S)[..., None]
    q_lead_alt = 0.25 * b_up * dot(p0 * b_up + p1 * y, S)[..., None]
    q_inv = (F ** (m - 2) / (8 * tau ** 2 * (m - 1))) * matvec(base.A_inv, W)

    return SprayPoint(
        G, Gbar, D, X, omega, P_closed,
        q_lead + q_inv, q_lead_alt + q_inv, q_lead, q_inv, aux, False,
    )


def projective_residual(
    field: CoefficientField, oneform: OneFormField, m: int, x, y
) -> float:
    """Max wedge component of the spray difference with y; zero iff D ~ y.

    Evaluated at y/||y|| so the result is invariant under rescaling y; the
    wedge itself is normalised by 1 + ||D|| ||y||.  One value per sample of
    a stack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_unit = y / np.linalg.norm(y, axis=-1)[..., None]
    A, beta = calculus.field_jets(field, oneform, x, y_unit)
    G = _spray(calculus.base_energy(field, m).compose(A, beta), y_unit)
    Gbar = _spray(calculus.kropina_energy(field, oneform, m).compose(A, beta), y_unit)
    D = Gbar - G
    # [i, j] = D_i y_j - D_j y_i: its largest entry is the largest i < j wedge
    # component, because the matrix is antisymmetric with a zero diagonal
    wedge = np.abs(outer(D, y_unit) - outer(y_unit, D)).max(axis=(-2, -1))
    return wedge / (
        1.0 + np.linalg.norm(D, axis=-1) * np.linalg.norm(y_unit, axis=-1)
    )


def split_defect(point: SprayPoint, y) -> dict:
    """How far the closed split is from reproducing the oracle difference.

    Returns max |D - (P y + Q)| for both scalar readings, the tangential
    comparison (component orthogonal to y, insensitive to P), and the verbatim
    relatedness balance, which equates the two halves of Q as printed; one
    value per sample of a stack.
    """
    y = np.asarray(y, dtype=float)
    if point.degenerate_order4:
        return {
            "split_defect": NAN, "split_defect_alt": NAN,
            "tangential_defect": NAN, "tangential_defect_alt": NAN,
            "balance_defect": NAN,
        }

    def tangential(v):
        return v - (dot(v, y) / dot(y, y))[..., None] * y

    def max_abs(v):
        return np.max(np.abs(v), axis=-1)

    P = point.P_closed[..., None]
    recon = P * y + point.Q_closed
    recon_alt = P * y + point.Q_closed_alt
    t_d = tangential(point.D)
    return {
        "split_defect": max_abs(point.D - recon),
        "split_defect_alt": max_abs(point.D - recon_alt),
        "tangential_defect": max_abs(t_d - tangential(point.Q_closed)),
        "tangential_defect_alt": max_abs(t_d - tangential(point.Q_closed_alt)),
        "balance_defect": max_abs(point.Q_lead - point.Q_inv),
    }


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Fixed-step trajectory; truncated=True when the domain was exhausted."""

    samples: list          # (t, x array, v array)
    step: float
    metric: str            # "base" | "kropina"
    truncated: bool = False
    reason: str = ""


def integrate_geodesic(
    energy: calculus.ScalarFunction, x0, y0, t_end: float, steps: int,
    metric: str = "base",
) -> GeodesicPath:
    """Classical fixed-step RK4 on (x' = v, v' = -G(x, v))."""
    if steps < 1:
        raise ValueError("steps must be positive")
    h = float(t_end) / steps
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(y0, dtype=float).copy()
    samples = [(0.0, x.copy(), v.copy())]
    truncated = False
    reason = ""

    def acc(xs, vs):
        return -spray_coeffs(energy, xs, vs)

    for i in range(1, steps + 1):
        try:
            k1x, k1v = v, acc(x, v)
            k2x, k2v = v + 0.5 * h * k1v, acc(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k3x, k3v = v + 0.5 * h * k2v, acc(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k4x, k4v = v + h * k3v, acc(x + h * k3x, v + h * k3v)
        except (DomainError, SingularMatrix, NonFiniteResult) as exc:
            truncated = True
            reason = str(exc)
            break
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise NonFiniteResult(f"non-finite state at step {i}")
        samples.append((i * h, x.copy(), v.copy()))

    return GeodesicPath(samples, h, metric, truncated, reason)
