"""Transformed-metric quantities of Fbar = F^2/beta.

Several of the printed closed forms for the transformed fundamental tensor and
its inverse are mutually inconsistent, so the single source of truth is the
differentiation oracle (half the y-Hessian of Fbar^2).  `kropina_point`
evaluates the closed forms of the supporting covector, the angular tensor and
the fundamental tensor verbatim next to their oracle quantities, and the
scalar family.  The two printed inverses read that family: `closed_inverses`
evaluates them, and the spray split (`spray.pq_split`) calls it, so they are
computed only where the split is.  The residual rows of `verify` are defined
in one table in `report`, which reads them off this snapshot and the split
computed from it alone.

`kropina_point(field, oneform, x, y, jets=None)` reads the order m off the
field.  Points may come stacked (N, n): the snapshot and the scalar family
then hold one entry per sample (per-sample scalars gain unit axes to
broadcast against vectors and matrices).  At m = 4 the scalar family from
delta on is NaN, and so, by plain arithmetic, are both closed inverses;
which rows that leaves undefined is decided in `report`, which does not
split the spray there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import in_sample_order
from .fields import CoefficientField, Jet, OneFormField, dot, matvec, outer
from .metric import MetricPoint, _invert_guarded, metric_point

NAN = float("nan")

# The scalars of the family from delta on divide by m - 4: NaN at order four.
ORDER4_UNDEFINED = ("delta", "q", "d2", "p0", "p1", "p2", "p3")


@dataclass
class AuxScalars:
    """Scalar family used by the closed-form inverse and the spray split.

    Everything downstream of `delta` divides by (m - 4) and is therefore
    undefined at order four: those fields (ORDER4_UNDEFINED) hold NaN.
    """

    tau: float
    b2: float
    w: float
    c2: float
    v: float
    delta: float
    q: float
    d2: float
    p0: float
    p1: float
    p2: float
    p3: float


def aux_scalars_from(F: float, beta: float, b2: float, m: int) -> AuxScalars:
    tau = F / beta
    w = F ** (m - 2) / (2 * tau ** 2 * (m - 1))
    c2 = F ** (m - 3) * beta * b2 / (2 * tau * (m - 1))
    v = (m - 4) * beta / (2 * F ** m)
    if m == 4:
        undefined = np.full_like(tau, NAN)
        return AuxScalars(tau, b2, w, c2, v, **dict.fromkeys(ORDER4_UNDEFINED, undefined))
    delta = -8 * F ** 4 / (beta ** 4 * (m - 4))
    q = delta * w ** 2 / (1 + delta * c2)
    d2 = w * (
        v * beta
        + v ** 2 * F ** m
        + (b2 + v * beta) * (1 - delta * w * (1 + v) / (1 + delta * c2))
    )
    bracket = (m - 4) - 8 * tau ** 4 * d2
    p0 = 4 * F ** m * (1 + q * (q * (1 + v) - (3 + v))) / (beta ** 2 * bracket)
    p1 = (
        8 * (m - 1) ** 2 * tau ** 4
        + 2 * delta * F ** (2 * (m - 2))
        + delta * F ** (m - 4) * (m - 4) * beta
    ) / (4 * tau ** 4 * (m - 1) ** 2 + delta * F ** (m - 2) * b2 * tau ** 4)
    p2 = (m - 4) ** 2 / (2 * F ** 6 * bracket)
    p3 = (
        (m - 4) ** 2 * (m - 1) * tau ** 2 - (m - 2) * bracket * beta ** 4
    ) / (2 * F ** 2 * tau ** 2 * beta ** 4 * (m - 1) * bracket)
    return AuxScalars(tau, b2, w, c2, v, delta, q, d2, p0, p1, p2, p3)


@dataclass
class KropinaPoint:
    """Every transformed quantity at (x, y), closed forms and oracle side, per sample of a stack.

    It also keeps what the spray split reads: the pass (A, beta), where
    beta's y-gradient b is read, the Fbar^2 jet composed from it, the raised
    one-form A^ij b_j and the scalar family.
    """

    jets: Jet                   # the pass (A, beta)
    base: MetricPoint
    beta: float
    Fbar: float
    lbar: np.ndarray            # closed-form supporting covector
    hbar_closed: np.ndarray     # printed closed form of the angular tensor
    hbar_oracle: np.ndarray     # Fbar * y-Hessian of Fbar
    gbar_closed: np.ndarray     # direct closed form of the fundamental tensor
    gbar_split: np.ndarray      # closed form split off the base tensor
    gbar_oracle: np.ndarray     # half y-Hessian of Fbar^2 (source of truth)
    gbar_inv_numeric: np.ndarray
    lbar_oracle: np.ndarray     # y-gradient of Fbar
    energy: Jet                 # Fbar^2 with its derivatives
    b_up: np.ndarray            # A^ij b_j
    aux: AuxScalars


@in_sample_order
def kropina_point(
    field: CoefficientField, oneform: OneFormField, x, y, jets=None
) -> KropinaPoint:
    """The transformed snapshot, from one pass of (A, beta): `jets` if given."""
    m = field.m
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jets = calculus.field_jets(field, oneform, x, y) if jets is None else jets
    base = metric_point(field, x, y, jets.group(0))
    b, beta = jets.group(1).grad_y, jets.group(1).val
    F, A_i, A_ij = base.F, base.A_i, base.A_ij

    Fbar = F ** 2 / beta
    tau = F / beta
    # the per-sample scalars against vectors, then against matrices
    Fv, betav = F[..., None], beta[..., None]
    lbar = 2 * A_i / (betav * Fv ** (m - 2)) - Fv ** 2 * b / betav ** 2

    cross = outer(A_i, b) + outer(b, A_i)
    aa = outer(A_i, A_i)
    bb = outer(b, b)

    Fm, betam, Fbarm, taum = (v[..., None, None] for v in (F, beta, Fbar, tau))
    hbar_closed = (2 * Fbarm / betam) * (
        (m - 1) * A_ij / Fm ** (m - 2)
        - cross / (Fm ** (m - 2) * betam)
        + bb / (Fm ** 2 * betam ** 2)
        - (m - 2) * aa / Fm ** (2 * (m - 1))
    )
    gbar_closed = 2 * taum ** 2 * (
        (m - 1) * A_ij / Fm ** (m - 2)
        - 2 * taum * cross / Fm ** (m - 1)
        + taum ** 2 * (1 / Fm ** 4 + 0.5) * bb
        - (m - 4) * aa / Fm ** (2 * (m - 1))
    )
    gbar_split = (
        2 * taum ** 2 * base.g
        - 4 * taum ** 3 * cross / Fm ** (m - 1)
        + (2 + Fm ** 4) * bb / betam ** 4
        + 4 * taum ** 2 * aa / Fm ** (2 * (m - 1))
    )

    energy_jet = calculus.kropina_energy(field, oneform, m).compose(jets)
    norm_jet = calculus.kropina_norm(field, oneform, m).compose(jets)
    gbar_oracle = 0.5 * energy_jet.hess_yy
    hbar_oracle = Fbarm * norm_jet.hess_yy
    gbar_inv_numeric = _invert_guarded(gbar_oracle, "transformed fundamental tensor")

    b_up = matvec(base.A_inv, b)
    aux = aux_scalars_from(F, beta, dot(b, b_up), m)

    return KropinaPoint(
        jets=jets, base=base, beta=beta, Fbar=Fbar, lbar=lbar,
        hbar_closed=hbar_closed, hbar_oracle=hbar_oracle,
        gbar_closed=gbar_closed, gbar_split=gbar_split, gbar_oracle=gbar_oracle,
        gbar_inv_numeric=gbar_inv_numeric, lbar_oracle=norm_jet.grad_y,
        energy=energy_jet, b_up=b_up, aux=aux,
    )


def closed_inverses(
    base: MetricPoint, b_up: np.ndarray, beta: float, aux: AuxScalars
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form and the split-form inverse: lead, shared terms, own y^i y^j term."""
    m, y = base.field.m, base.y
    F, beta, tau, p0, p1, p2, p3, d2 = (
        v[..., None, None] for v in (
            base.F, beta, aux.tau, aux.p0, aux.p1, aux.p2, aux.p3, aux.d2
        )
    )
    mixed_coef = (
        2 * beta ** 3 * (m - 4) * p1
        / (F ** 2 * (m - 1) * (beta ** 4 * (m - 4) - 8 * F ** 4 * d2))
    )
    bb = p0 * outer(b_up, b_up)
    mixed = mixed_coef * (outer(b_up, y) + outer(y, b_up))
    yy = outer(y, y)
    closed = F ** (m - 2) * base.A_inv / (2 * tau ** 2 * (m - 1))
    split = base.g_inv / (2 * tau ** 2)
    return closed + bb + mixed + p2 * yy, split + bb + mixed + p3 * yy
