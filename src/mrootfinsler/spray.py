"""Spray coefficients, the closed-form decomposition, and geodesic integration.

Sprays come from G^i = (1/4) g^il ( [E]_{x^k y^l} y^k - [E]_{x^l} ) with E the
squared norm, using the oracle's derivatives and a numeric inverse of the
oracle Hessian; the same routine serves the base and the transformed metric.
Projective relatedness is decided by the wedge of the spray difference with y,
which is zero exactly when the difference is proportional to y.  The closed-
form P/Q split is evaluated verbatim (both readings of its ambiguous scalar)
and only ever reported.

Both sprays and every x-derivative the split needs come from one derivative
pass of A and beta (calculus.field_jets).  The split (pq_split) is a function
of the Kropina snapshot (kropina.kropina_point) alone: it reads that pass,
the Fbar^2 jet, A^ij b_j and the scalar family off it instead of making them
again; pq_decomposition makes the snapshot at (x, y) first.  The printed
tail X is written once, verbatim, because it may be misprinted and no
identity may be applied to it; its x-derivatives are that same formula under
the complex step (Squire & Trapp, SIAM Review 40, 1998), exact to rounding.
Everything but the geodesic integrator also takes a stack of samples (N, n):
the sprays are then one batched solve, and the split and the wedge hold one
entry per sample.  The sprays solve the oracle Hessian H = 2g
(metric.solve_guarded: its condition guard, then the LAPACK gufunc) and halve
the solution, which is 0.25 g^-1 r bit for bit: a power of two commutes with
rounding.  RK4 steps the packed state z = (x, v), and each stage hands z as
it is to the same pass, domain guard and chain rule on raw blocks
(TermTable.block and refusals, calculus.chain), bound once per integration:
the guard picks its own one-point fast form, and a refused point raises what
field_jets raises, off the block the stage holds.  Each public evaluator but
the integrator is one stack evaluation (errors.in_sample_order); the stage
opens none.  No state outside the domain is kept.

Geodesic convention: the integrated system is x'' = -G(x, x') with G as above.
That is not the geodesic equation of this quarter-factor spray, which is
x'' + 2G = 0; scaling a spray by a constant changes its curves, not only their
speed.  Integrating x'' = -2G is open work (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import DomainError, NonFiniteResult, SingularMatrix, in_sample_order
from .fields import CoefficientField, Jet, OneFormField, all_finite, dot
from .fields import matvec, norm, outer, pack, vecmat
from .kropina import AuxScalars, KropinaPoint, kropina_point
from .metric import solve_guarded

NAN = float("nan")


@in_sample_order
def spray_coeffs(energy: calculus.ScalarFunction, x, y) -> np.ndarray:
    """Quarter g-inverse of the standard spray bracket for the given energy,
    per sample of a stack."""
    return _stage_of(energy)(pack(x, y, energy.field.n))


def _stage_of(energy: calculus.ScalarFunction):
    """spray_coeffs at the packed points v = (x, y) as a function of v alone:
    one RK4 stage of the integrator, with the energy's term table, exponents
    and block head bound once.  A straight line over raw blocks under one
    errstate: the pass (TermTable.block), its domain guard on the same block
    (TermTable.refusals, which clears one point in Python floats first) and
    the chain rule (calculus.chain); then, for a jet that is not finite, the
    Jet API's guard on the same block, and the guarded solve."""
    field, oneform, exponents = energy.field, energy.oneform, energy.exponents
    n, n2, m, k = field.n, 2 * field.n, field.m, len(exponents)
    head = 1 + n2 * (n2 + 1)
    table, chain = field.terms_with(oneform), calculus.chain
    block, refusals = table.block, table.refusals

    def stage(v):
        with np.errstate(all="ignore"):
            out = block(v)
            refusals(out, v, m)
            jet = chain(out[..., :k, :head], exponents, n2)
        if not all_finite(jet):
            energy.compose(Jet.of(out, n2))  # refuses, as the Jet path does
        return _spray(jet, v[..., n:])

    return stage


def _spray(block: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The spray at y from a jet of the energy, given as its block (Jet.of)."""
    n, n2 = y.shape[-1], 2 * y.shape[-1]
    hess = block[..., 1 + n2 : 1 + n2 * (n2 + 1)].reshape(block.shape[:-1] + (n2, n2))
    rhs = vecmat(y, hess[..., :n, n:]) - block[..., 1 : 1 + n]
    return 0.5 * solve_guarded(hess[..., n:, n:], rhs, "fundamental tensor condition number {:.3e}")


# ---------------------------------------------------------------------------
# the verbatim tail of the split and its x-derivatives
# ---------------------------------------------------------------------------

# The complex step: Im f(v + ih v') / h = f'(v) v' + O(h^2), with no difference
# taken and so no cancellation, whatever h is.  At h = 1e-20 the O(h^2) term
# lies some 40 orders below the derivative, far past rounding, while h v'
# stays far above the subnormal range for any derivative a spec can reach.
_COMPLEX_STEP = 1e-20


def _metric_bracket(E: calculus.Jet, y: np.ndarray) -> np.ndarray:
    """V_l = sum_jk [dg_jl/dx^k - dg_jk/dx^l] y^j y^k from the pass of F^2.

    By the Euler identities g_jl y^j = [F^2]_{y^l} / 2 and g_jk y^j y^k = F^2,
    which hold because the base closed form of g is exact, this is
    (y H_xy[F^2])_l / 2 - [F^2]_{x^l}.
    """
    return 0.5 * vecmat(y, E.hess_xy) - E.grad_x


def transform_tail(A, A_i, b, beta, m: int) -> np.ndarray:
    """The non-base tail of the split transformed tensor, evaluated verbatim
    from A, A_i = A_y / m, b = beta_y and beta (complex in tail_x_derivatives)."""
    A, beta = A[..., None, None], beta[..., None, None]
    qa = (4.0 - m) / m
    qc = (4.0 - 2.0 * m) / m
    cross = outer(A_i, b) + outer(b, A_i)
    return (
        -4 * A ** qa * cross / beta ** 3
        + (2 + A ** (4.0 / m)) * outer(b, b) / beta ** 4
        + 4 * A ** qc * outer(A_i, A_i) / beta ** 2
    )


def tail_x_derivatives(A: calculus.Jet, beta: calculus.Jet, m: int) -> np.ndarray:
    """[..., k, j, l] = dX_jl/dx^k: the tail above with each ingredient stepped
    by ih times its x^k-derivative, read off the pass of (A, beta), k on a new axis."""
    h = _COMPLEX_STEP
    return transform_tail(
        A.val[..., None] + 1j * h * A.grad_x,
        (A.grad_y[..., None, :] + 1j * h * A.hess_xy) / m,
        beta.grad_y[..., None, :] + 1j * h * beta.hess_xy,
        beta.val[..., None] + 1j * h * beta.grad_x,
        m,
    ).imag / h


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
    aux: AuxScalars           # the scalar family; aux.degenerate_order4 flags m = 4


@in_sample_order
def pq_decomposition(field: CoefficientField, oneform: OneFormField, m: int, x, y) -> SprayPoint:
    """The split at (x, y) (pq_split), off its own Kropina snapshot."""
    return pq_split(kropina_point(field, oneform, m, x, y))


@in_sample_order
def pq_split(point: KropinaPoint) -> SprayPoint:
    """Oracle sprays always; closed-form P and Q verbatim where defined, all
    read off the Kropina snapshot alone: its pass (A, beta), Fbar^2 jet,
    A^ij b_j and scalar family.

    The closed Q is printed with a scalar that collides with the one defined
    by the inverse-tensor rewrite; both readings are returned (`Q_closed` uses
    the scalar as printed in the decomposition, `Q_closed_alt` the one from
    the expansion it descends from).
    """
    jets, base, aux, b_up = point.jets, point.base, point.aux, point.b_up
    field, m, y = base.field, base.m, base.y

    E = calculus.base_energy(field, m).compose(jets)
    G = _spray(E.block, y)
    Gbar = _spray(point.energy.block, y)
    D = Gbar - G

    A, beta = jets.group(0), jets.group(1)
    X = transform_tail(A.val, A.grad_y / m, beta.grad_y, beta.val, m)
    # omega = 2 d(tau^2)/dx with tau^2 = A^(2/m) beta^(-2)
    omega = 2.0 * calculus.power(jets, (2.0 / m, -2.0)).grad_x

    if aux.degenerate_order4:
        nanv = np.full(y.shape, NAN)
        return SprayPoint(
            G, Gbar, D, X, omega, NAN,
            nanv, nanv.copy(), nanv.copy(), nanv.copy(), aux,
        )

    dX = tail_x_derivatives(A, beta, m)
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
    P_closed = 0.25 * dot(p1 * b_up + p3 * y, S) + (
        (m - 2) / (4 * aux.tau ** 2 * base.F ** 2 * (m - 1))
    ) * dot(y, W)
    q_lead = 0.25 * b_up * dot(p2 * b_up + p1 * y, S)[..., None]
    q_lead_alt = 0.25 * b_up * dot(p0 * b_up + p1 * y, S)[..., None]
    q_inv = (F ** (m - 2) / (8 * tau ** 2 * (m - 1))) * matvec(base.A_inv, W)

    return SprayPoint(
        G, Gbar, D, X, omega, P_closed,
        q_lead + q_inv, q_lead_alt + q_inv, q_lead, q_inv, aux,
    )


@in_sample_order
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
    y_unit = y / norm(y)[..., None]
    jets = calculus.field_jets(field, oneform, x, y_unit)
    G = _spray(calculus.base_energy(field, m).compose(jets).block, y_unit)
    Gbar = _spray(calculus.kropina_energy(field, oneform, m).compose(jets).block, y_unit)
    D = Gbar - G
    # [i, j] = D_i y_j - D_j y_i: its largest entry is the largest i < j wedge
    # component, because the matrix is antisymmetric with a zero diagonal
    wedge = np.abs(outer(D, y_unit) - outer(y_unit, D)).max(axis=(-2, -1))
    return wedge / (1.0 + norm(D) * norm(y_unit))


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Fixed-step trajectory; truncated=True when the domain was exhausted."""

    samples: list          # (t, x array, v array)
    truncated: bool = False
    reason: str = ""


def integrate_geodesic(
    energy: calculus.ScalarFunction, x0, y0, t_end: float, steps: int
) -> GeodesicPath:
    """Classical fixed-step RK4 on the packed state z = (x, v): z' = (v, -G(x, v)).
    A state outside the domain leaves the path, named in the reason: the next
    step's first stage finds it (DomainError), or field_jets the final one."""
    if steps < 1:
        raise ValueError("steps must be positive")
    h = float(t_end) / steps
    n = energy.field.n
    z = pack(x0, y0, n)
    samples = [(0.0, z[:n], z[n:])]
    truncated, reason = False, ""
    stage = _stage_of(energy)

    def rate(z):
        return np.concatenate((z[n:], -stage(z)))

    def outside(exc):
        return f"state at t={samples.pop()[0]!r} is outside the domain: {exc}"

    for i in range(1, steps + 1):
        k1 = None
        try:
            k1 = rate(z)
            k2 = rate(z + 0.5 * h * k1)
            k3 = rate(z + 0.5 * h * k2)
            k4 = rate(z + h * k3)
        except (DomainError, SingularMatrix, NonFiniteResult) as exc:
            # k1 evaluates exactly the state the step before accepted
            at_k1 = k1 is None and isinstance(exc, DomainError)
            truncated, reason = True, outside(exc) if at_k1 else str(exc)
            break
        # every step makes a new z, so the samples may keep views of it
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not all_finite(z):
            raise NonFiniteResult(f"non-finite state at step {i}")
        samples.append((i * h, z[:n], z[n:]))
    else:
        try:
            calculus.field_jets(energy.field, energy.oneform, z[:n], z[n:])
        except DomainError as exc:
            truncated, reason = True, outside(exc)

    return GeodesicPath(samples, truncated, reason)
