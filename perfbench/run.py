"""Benchmark of the mrootfinsler command line, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-bulk --seed 1 --seconds 20 --trace 0

Drives `mrootfinsler.cli.main(argv)` in-process as a closed loop with one
client: one process, one thread, and the next invocation starts only after
the previous one returns.  Every invocation's stdout is captured at the file
descriptor (`cli._emit` bound `sys.stdout` at import, so swapping the Python
object would not catch it) and checked; see workloads.py.  Invocation and
set-up times are rescaled to a reference machine speed with the calibration
kernel in calibrate.py, timed before and after each of them; raw figures are
printed beside.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 repeats one fixed cycle of the workload, alternately untraced and
traced, and reports per-layer self time, share and calls per cycle, named
counts and diagnostics, and the tracing overhead.

Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# One BLAS thread.  The package's matrices are at most 4 x 4, too small for
# BLAS to split, but a second BLAS thread spins while numpy is imported: set-up
# then took 0.10 s when the other CPU was free and 0.17-0.23 s when it was not.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MAX_REPORTED_FAILURES = 10

# Named per-layer counts: metric name -> wrapped function whose calls it counts.
NAMED_CALLS = {
    "calculus.hess_passes": "calculus.value_grad_hess_y",
    "calculus.mixed_xy_calls": "calculus.mixed_xy",
    "calculus.grad_x_calls": "calculus.grad_x",
    "fields.tensor_at_calls": "fields.CoefficientField.tensor_at",
    "symtensor.eval_calls": "symtensor.SymmetricTensor.eval",
    "symtensor.contract_calls": "symtensor.SymmetricTensor.contract",
    "spray.spray_coeffs_calls": "spray.spray_coeffs",
}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Harness:
    """Runs one invocation with fd 1 pointed at a scratch file."""

    def __init__(self, cli, tmp: str):
        self.cli = cli
        self.fd = os.open(os.path.join(tmp, "stdout"), os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)

    def close(self) -> None:
        os.close(self.fd)

    def invoke(self, argv):
        """(exit code, seconds, stdout bytes); writing stdout out is timed."""
        sys.stdout.flush()
        os.ftruncate(self.fd, 0)
        os.lseek(self.fd, 0, os.SEEK_SET)
        saved = os.dup(1)
        os.dup2(self.fd, 1)
        try:
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:   # argparse rejects its input this way
                rc = exc.code
            finally:
                sys.stdout.flush()
            elapsed = time.perf_counter() - start
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        size = os.lseek(self.fd, 0, os.SEEK_END)
        return rc, elapsed, os.pread(self.fd, size, 0)


class Runner:
    """Invokes, checks and times; keeps the failure count and the fingerprint.

    The fingerprint (per-row residual maxima, verdicts, check residuals) is
    recorded for comparison between versions and never counts as a failure.
    """

    def __init__(self, harness: Harness, workloads, calibrate):
        self.harness = harness
        self.workloads = workloads
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.kernels = [calibrate.kernel_seconds()]
        self.rows = {}          # fixture -> formula -> max of max_rel
        self.verdicts = {}      # "fixture kind" -> {verdict: count}
        self.residuals = {}     # "fixture kind" -> max operational residual

    def run(self, inv):
        """(raw seconds, seconds at reference speed, Outcome); None if it crashed."""
        self.attempted += 1
        elapsed = 0.0
        try:
            rc, elapsed, stdout = self.harness.invoke(inv.argv)
            outcome = self.workloads.check_output(inv, rc, stdout)
        except Exception:  # noqa: BLE001 - one crashed invocation must not stop the run
            outcome = None
            self._fail(inv, [traceback.format_exc()])
        self.kernels.append(self.calibrate.kernel_seconds(beside=elapsed))
        if outcome is None:
            return None
        if outcome.problems:
            self._fail(inv, outcome.problems)
        self._fingerprint(inv, outcome)
        kernel = (self.kernels[-2] + self.kernels[-1]) / 2
        return elapsed, self.calibrate.at_reference(elapsed, kernel), outcome

    def _fail(self, inv, problems) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            sys.stderr.write(f"FAILED {' '.join(inv.argv)}: {'; '.join(problems)}\n")

    def _fingerprint(self, inv, outcome) -> None:
        if inv.command == "verify":
            rows = self.rows.setdefault(inv.fixture, {})
            for name, rel in outcome.rows.items():
                best = rows.get(name)
                rows[name] = rel if best is None else best if rel is None else max(best, rel)
        elif inv.command == "check":
            key = f"{inv.fixture} {inv.argv[1]}"
            counts = self.verdicts.setdefault(key, {})
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
            self.residuals[key] = max(self.residuals.get(key, 0.0), outcome.residual)

    def print_fingerprint(self) -> None:
        print("fingerprint " + json.dumps(
            {"row_max_rel": self.rows, "verdicts": self.verdicts, "max_residual": self.residuals},
            sort_keys=True,
        ))

    def machine_speed(self) -> float:
        """Speed relative to the reference: above 1 is faster."""
        return self.calibrate.REFERENCE_S / statistics.median(self.kernels)


def measure_setup(workload, calibrate):
    """Per fresh process, seconds to import, load the workload's specs and
    build the parser: (raw, at reference speed).

    The child's time is rescaled by the kernel timed in this process just
    before and after it, as for invocations.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate.kernel_seconds(beside=raw[-1] if raw else 0.0)
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), *workload.fixtures],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        raw.append(float(done.stdout))
        kernel = (before + calibrate.kernel_seconds(beside=raw[-1])) / 2
        scaled.append(calibrate.at_reference(raw[-1], kernel))
    return raw, scaled


def end_to_end(workload, seed: int, seconds: float, runner: Runner, tmp: str):
    setup_raw, setup = measure_setup(workload, runner.calibrate)
    # One untimed cycle, so first-call costs in the process are paid before timing.
    for inv in workload.cycle(random.Random(f"warm-up {seed}"), tmp):
        runner.run(inv)

    rng = random.Random(seed)
    raw, times, cycle_means, raw_cycle_means = [], [], [], []
    work = 0
    start = time.perf_counter()
    while True:
        cycle = workload.cycle(rng, tmp)
        cycle_raw, cycle_times = [], []
        for inv in cycle:
            result = runner.run(inv)
            if result is None:
                continue
            cycle_raw.append(result[0])
            cycle_times.append(result[1])
            if not result[2].problems:
                work += result[2].work
        raw += cycle_raw
        times += cycle_times
        if cycle_times:
            cycle_means.append(sum(cycle_times) / len(cycle_times))
            raw_cycle_means.append(sum(cycle_raw) / len(cycle_raw))
        if time.perf_counter() - start >= seconds:
            break
    if not times:
        raise SystemExit("no invocation completed")

    count = len(times)
    p90 = statistics.quantiles(times, n=10)[-1] if count > 1 else times[0]
    values = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(cycle_means), "s"),
        "wall_p90_s": metric(p90, "s"),
        "work_per_s": metric(work / sum(times), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    v = {name: value["value"] for name, value in values.items()}
    print(f"workload {workload.name}: closed loop, one client (one process, one thread); "
          f"BLAS threads {os.environ['OMP_NUM_THREADS']}")
    print(f"  {count} timed invocations in {len(cycle_means)} cycles of {len(cycle)}; "
          f"{runner.attempted} attempted with the warm-up cycle")
    print(f"  times at reference speed; machine ran at {runner.machine_speed():.3f}x reference")
    print(f"  setup_s      {v['setup_s']:.6f} s    median of {len(setup)} fresh processes "
          f"(raw {statistics.median(setup_raw):.6f})")
    print(f"  wall_s       {v['wall_s']:.6f} s    median over cycles of the mean invocation "
          f"(raw {statistics.median(raw_cycle_means):.6f})")
    print(f"  wall_p90_s   {v['wall_p90_s']:.6f} s    p90 of {count} invocations, "
          f"{count - int(0.9 * count)} beyond it")
    print(f"  work_per_s   {v['work_per_s']:.3f} 1/s  {workload.work_unit} per second of "
          f"invocation time (raw {work / sum(raw):.3f})")
    print(f"  failed_ratio {runner.failed / runner.attempted:g} ratio  "
          f"{runner.failed} of {runner.attempted} invocations failed")
    print(f"  peak_rss_mb  {v['peak_rss_mb']:.1f} MB   peak resident memory of the process")
    runner.print_fingerprint()
    return values


def traced(workload, seed: int, seconds: float, runner: Runner, tmp: str, tracer):
    from layertrace import EMIT_SPANS, LAYERS

    # One fixed cycle, repeated, so that every traced round does the same work.
    cycle = workload.cycle(random.Random(seed), tmp)
    for inv in cycle:
        runner.run(inv)

    wall = {False: 0.0, True: 0.0}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    totals = dict.fromkeys(("root_s", "emit_s", "rk4_s", "load_s", "loads"), 0.0)
    first = None
    counts_repeat = True
    drift = 0.0
    drawn = accepted = emitted = steps = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for is_traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if is_traced:
                tracer.reset()
                tracer.install()
            try:
                results = [(inv, runner.run(inv)) for inv in cycle]
            finally:
                tracer.uninstall()
            done = [(inv, r) for inv, r in results if r is not None]
            raw = sum(r[0] for _, r in done)
            scaled = sum(r[1] for _, r in done)
            wall[is_traced] += scaled
            if not is_traced:
                continue
            summary = tracer.summary()
            if first is None:
                first = summary
                for inv, (_, _, outcome) in done:
                    drawn += outcome.drawn
                    emitted += outcome.emitted_bytes
                    if inv.command == "geodesic":
                        steps += inv.steps
                        if outcome.path:
                            drift = max(drift, runner.workloads.geodesic_drift(inv, outcome.path))
                    else:
                        accepted += outcome.work
            elif summary["name_calls"] != first["name_calls"]:
                counts_repeat = False
            # Span times are raw; rescale them like the pass they belong to.
            factor = scaled / raw if raw else 1.0
            inclusive, spans = summary["name_inclusive_s"], summary["name_spans"]
            totals["root_s"] += factor * summary["root_s"]
            totals["emit_s"] += factor * sum(summary["name_self_s"].get(n, 0.0) for n in EMIT_SPANS)
            totals["rk4_s"] += factor * inclusive.get("spray.integrate_geodesic", 0.0)
            totals["load_s"] += factor * inclusive.get("specfile.load_spec", 0.0)
            totals["loads"] += spans.get("specfile.load_spec", 0)
            for layer in LAYERS:
                layer_self[layer] += factor * summary["layer_self_s"][layer]
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = metric(layer_self[layer] / rounds, "s")
        values[f"{layer}.share"] = metric(layer_self[layer] / totals["root_s"], "ratio")
        values[f"{layer}.calls"] = metric(first["layer_calls"][layer], "count")
    for name, wrapped in NAMED_CALLS.items():
        values[name] = metric(first["name_calls"][wrapped], "count")
    values["spray.rk4_step_s"] = metric(totals["rk4_s"] / (rounds * steps) if steps else 0.0, "s")
    values["spray.geodesic_drift_rel"] = metric(drift, "ratio")
    values["sampling.accept_ratio"] = metric(accepted / drawn if drawn else 0.0, "ratio")
    values["emit.bytes"] = metric(emitted, "bytes")
    values["emit.self_s"] = metric(totals["emit_s"] / rounds, "s")
    values["specfile.load_s"] = metric(
        totals["load_s"] / totals["loads"] if totals["loads"] else 0.0, "s")
    values["tracing_overhead"] = metric(wall[True] / wall[False], "ratio")

    print(f"workload {workload.name} traced: {rounds} rounds of one fixed cycle of "
          f"{len(cycle)} invocations, each run untraced and traced; figures per cycle, "
          f"times at reference speed (machine at {runner.machine_speed():.3f}x)")
    print(f"  {'layer':10s} {'self_s':>10s} {'share':>7s} {'calls':>8s}")
    for layer in LAYERS:
        print(f"  {layer:10s} {values[f'{layer}.self_s']['value']:10.6f} "
              f"{values[f'{layer}.share']['value']:7.3f} {values[f'{layer}.calls']['value']:8d}")
    table = {f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "share", "calls")}
    for name, value in values.items():
        if name not in table:
            print(f"  {name} = {value['value']:.6g} {value['unit']}")
    print(f"  counts identical in every traced round: {counts_repeat}")
    print("  note: cli includes emit (cli._emit + cli.write_path_file)")
    print("  note: jet arithmetic runs inside SymmetricTensor.eval, so symtensor self time "
          "includes oracle work")
    print("  note: a layer the workload does not reach reports 0, as do accept_ratio "
          "without sampling and rk4_step_s and geodesic_drift_rel without geodesics")
    runner.print_fingerprint()
    if not counts_repeat:
        sys.stderr.write("per-layer call counts differed between traced rounds\n")
    return values, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "mrootfinsler", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "fixtures"))):
        sys.stderr.write(f"no mrootfinsler source tree (src/mrootfinsler, fixtures/) under {ROOT}\n")
        return 2
    for var in BLAS_THREAD_VARS:     # before numpy is first imported
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import calibrate
    import workloads
    from mrootfinsler import cli

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tmp = os.path.relpath(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    harness = Harness(cli, tmp)
    try:
        runner = Runner(harness, workloads, calibrate)
        if args.trace:
            from layertrace import LayerTracer

            values, consistent = traced(
                workload, args.seed, args.seconds, runner, tmp, LayerTracer())
        else:
            values = end_to_end(workload, args.seed, args.seconds, runner, tmp)
            consistent = True
    finally:
        harness.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
