"""The benchmark's workloads: CLI invocations made from a seed, and the checks
every invocation's output must pass.

A workload is a cycle of invocations that repeats with fresh inputs.  The
program receives only what is generated here: `--seed` for the sampled
commands, `--x0`/`--y0` for geodesics.  Box flags are left at their defaults.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

ROWS = (
    "lbar_closed", "hbar_closed", "gbar_closed", "gbar_split",
    "gbar_inv_closed", "gbar_inv_split",
    "gbar_inv_closed_identity", "gbar_inv_split_identity",
    "spray_split", "spray_split_alt", "spray_tangential", "spray_tangential_alt",
    "relatedness_balance",
)
# Rows with a value at every admissible point; the others are null at m = 4.
ALWAYS_DEFINED = ROWS[:4]
# The one closed form the design asserts tight: a direct first derivative.
LBAR_TOL = 1e-9

ONE_FORM_FIXTURES = ("berwald_moore", "cubic_x", "cubic_x_bx", "diag_quartic", "mixed_quartic")
# Large enough that per-invocation costs are a small share, short enough
# (about 0.3 s) that the calibration kernel timed on either side of an
# invocation tracks the host's speed during it; see calibrate.py.
BULK_SAMPLES = 100
SMALL_SAMPLES = 8
# A verdict needs flatness.MIN_VERDICT_SAMPLES = 50 accepted draws; neither
# check fixture rejected a draw in testing.
CHECK_SAMPLES = 60
CHECK_KINDS = ("dually-flat", "proj-flat", "proj-related")
# (fixture, kind) -> (verdict, exit code)
CHECK_EXPECT = {
    ("cubic_x_bx", "dually-flat"): ("not-flat", 1),
    ("cubic_x_bx", "proj-flat"): ("not-flat", 1),
    ("cubic_x_bx", "proj-related"): ("not-related", 1),
    ("mixed_quartic", "dually-flat"): ("flat-within-tol", 0),
    ("mixed_quartic", "proj-flat"): ("flat-within-tol", 0),
    ("mixed_quartic", "proj-related"): ("related-within-tol", 0),
}
GEODESIC_STEPS = 100    # sized like BULK_SAMPLES
GEODESIC_T = 0.5
# Start points jitter around x0 = (0, 0), y0 = (1, 0.5); the paths from the
# corners of this box stay inside the domain of cubic_x_bx up to t = 0.5.
GEODESIC_JITTER = 0.05


def spec_path(fixture: str) -> str:
    return f"fixtures/{fixture}.json"


@dataclass
class Invocation:
    """One `cli.main(argv)` call and what its output must show."""

    argv: list
    command: str
    fixture: str
    expect_rc: int = 0
    verdict: str = ""       # check: expected verdict
    steps: int = 0          # geodesic: RK4 steps
    out: str = ""           # geodesic: path file
    metric: str = ""        # geodesic: base | kropina


@dataclass
class Outcome:
    """What checking one invocation's output found."""

    work: int = 0           # accepted samples, or RK4 steps
    drawn: int = 0          # sampled draws, accepted or rejected
    emitted_bytes: int = 0
    problems: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)    # verify: formula -> max_rel
    verdict: str = ""
    residual: float = 0.0
    path: list = field(default_factory=list)    # geodesic: (x, v) per row


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _verify(fixture: str, samples: int, rng: random.Random) -> Invocation:
    argv = ["verify", "--json", "--spec", spec_path(fixture),
            "--samples", str(samples), "--seed", _seed(rng)]
    return Invocation(argv, "verify", fixture)


def _check(fixture: str, kind: str, rng: random.Random) -> Invocation:
    verdict, rc = CHECK_EXPECT[(fixture, kind)]
    argv = ["check", kind, "--json", "--spec", spec_path(fixture),
            "--samples", str(CHECK_SAMPLES), "--seed", _seed(rng)]
    return Invocation(argv, "check", fixture, expect_rc=rc, verdict=verdict)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def verify_bulk_cycle(rng: random.Random, tmp: str) -> list:
    return [_verify("cubic_x_bx", BULK_SAMPLES, rng)]


def verify_small_cycle(rng: random.Random, tmp: str) -> list:
    return [_verify(fixture, SMALL_SAMPLES, rng) for fixture in ONE_FORM_FIXTURES]


def check_cycle(rng: random.Random, tmp: str) -> list:
    return [
        _check(fixture, kind, rng)
        for fixture in ("cubic_x_bx", "mixed_quartic")
        for kind in CHECK_KINDS
    ]


def geodesic_cycle(rng: random.Random, tmp: str) -> list:
    # `--x0=` form: argparse would read a leading minus in `--x0 -0.03,0.01`
    # as an option.
    x0 = [round(rng.uniform(-GEODESIC_JITTER, GEODESIC_JITTER), 6) for _ in range(2)]
    y0 = [round(c + rng.uniform(-GEODESIC_JITTER, GEODESIC_JITTER), 6) for c in (1.0, 0.5)]
    cycle = []
    for metric in ("kropina", "base"):
        out = f"{tmp}/geodesic-{metric}.txt"
        argv = ["geodesic", "--json", "--spec", spec_path("cubic_x_bx"),
                "--metric", metric, f"--x0={_csv(x0)}", f"--y0={_csv(y0)}",
                "--t", repr(GEODESIC_T), "--steps", str(GEODESIC_STEPS), "--out", out]
        cycle.append(Invocation(argv, "geodesic", "cubic_x_bx",
                                steps=GEODESIC_STEPS, out=out, metric=metric))
    return cycle


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    fixtures: tuple         # specs that set-up loads
    cycle: object           # (rng, tmp dir) -> list of Invocation


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-bulk", "samples", ("cubic_x_bx",), verify_bulk_cycle),
        Workload("verify-small", "samples", ONE_FORM_FIXTURES, verify_small_cycle),
        Workload("check", "samples", ("cubic_x_bx", "mixed_quartic"), check_cycle),
        Workload("geodesic", "RK4 steps", ("cubic_x_bx",), geodesic_cycle),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_output(inv: Invocation, rc, stdout: bytes) -> Outcome:
    """Everything that makes an invocation count as failed lands in problems."""
    outcome = Outcome(emitted_bytes=len(stdout))
    if rc != inv.expect_rc:
        outcome.problems.append(f"exit code {rc}, expected {inv.expect_rc}")
        return outcome
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        outcome.problems.append(f"stdout is not one JSON document: {exc}")
        return outcome
    {"verify": _check_verify, "check": _check_check, "geodesic": _check_geodesic}[
        inv.command
    ](inv, payload, outcome)
    return outcome


def _check_verify(inv: Invocation, payload: dict, outcome: Outcome) -> None:
    problems = outcome.problems
    requested = payload["samples_requested"]
    accepted = payload["samples_accepted"]
    outcome.work = accepted
    outcome.drawn = accepted + len(payload["rejected"])
    if accepted < requested:
        problems.append(f"accepted {accepted} of {requested} samples")
    if len(payload["records"]) != accepted:
        problems.append(f"{len(payload['records'])} records for {accepted} samples")
    formulas = tuple(row["formula"] for row in payload["rows"])
    if formulas != ROWS:
        problems.append(f"rows {formulas} are not the {len(ROWS)} formulas in order")
        return
    m = payload["order"]
    for row in payload["rows"]:
        name, rel = row["formula"], row["max_rel"]
        outcome.rows[name] = rel
        if rel is None and (m != 4 or name in ALWAYS_DEFINED):
            problems.append(f"row {name} is null at m = {m}")
    lbar = outcome.rows["lbar_closed"]
    if lbar is not None and lbar > LBAR_TOL:
        problems.append(f"lbar_closed max_rel {lbar:.3e} above {LBAR_TOL:g}")


def _check_check(inv: Invocation, payload: dict, outcome: Outcome) -> None:
    accepted = payload["samples_accepted"]
    outcome.work = accepted
    outcome.drawn = accepted + len(payload["rejected"])
    outcome.verdict = payload["verdict"]
    residual = payload.get("max_residual", payload.get("max_wedge_residual"))
    outcome.residual = residual if residual is not None else math.nan
    if outcome.verdict != inv.verdict:
        outcome.problems.append(f"verdict {outcome.verdict}, expected {inv.verdict}")


def _check_geodesic(inv: Invocation, payload: dict, outcome: Outcome) -> None:
    problems = outcome.problems
    outcome.work = inv.steps
    if payload["truncated"] or payload["states_written"] != inv.steps + 1:
        problems.append(
            f"{payload['states_written']} states, truncated={payload['truncated']}"
        )
    with open(inv.out, "rb") as handle:
        text = handle.read()
    outcome.emitted_bytes += len(text)
    rows = []
    for line in text.decode().splitlines():
        if line.startswith("# truncated"):
            problems.append(f"path file says {line[2:]}")
        elif line and not line.startswith("#"):
            rows.append([float(v) for v in line.split()])
    n = payload["dimension"]
    if len(rows) != inv.steps + 1:
        problems.append(f"path file has {len(rows)} rows, expected {inv.steps + 1}")
    if any(len(row) != 1 + 2 * n or not all(map(math.isfinite, row)) for row in rows):
        problems.append("path file has a short or non-finite row")
        return
    outcome.path = [(row[1 : 1 + n], row[1 + n :]) for row in rows]


def geodesic_drift(inv: Invocation, path: list) -> float:
    """Max relative drift of the norm the path's energy comes from.

    Geodesics of a Finsler metric conserve it, F for base and Fbar for
    kropina.  Call this with tracing off: it runs the package's own norms.
    """
    from mrootfinsler import calculus
    from mrootfinsler.specfile import load_spec

    doc = load_spec(spec_path(inv.fixture))
    if inv.metric == "kropina":
        norm = calculus.kropina_norm(doc.field, doc.oneform, doc.m)
    else:
        norm = calculus.mth_root_norm(doc.field, doc.m)
    values = [norm(x, v) for x, v in path]
    return max(abs(value - values[0]) for value in values) / abs(values[0])
