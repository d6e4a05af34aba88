#!/usr/bin/env python3
"""Same-box benchmark of the Tango simulator.

One workload (see ``workloads.py``) per process, run serially::

    python3 perfbench/run.py --workload standard --seed 3 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
the workload's fixed simulated horizon until ``--seconds`` of host time are
used (at least twice), reports host times over all of the repeats, and
builds the system once more after each repeat, and again for the rest of
the time (at least ``SETUP_SAMPLES`` set-ups), to take the median set-up
time.  Host times are the CPU time of the benchmark's thread (see
``clock_ns``), scaled to a reference host speed that a calibration loop
interleaved with the run measures (see ``Calibration``).
``--trace 1`` runs the workload once untraced, once with every layer in
``layers.LAYERS`` wrapped, and once untimed with the strict runtime
invariant checker on; it reports the per-layer metrics and the tracing
overhead, and writes the spans to ``--out-dir``.

Both modes check the outputs: every run's ``metrics_fingerprint`` must be
identical (repeats; untraced, traced and invariant-checked runs), every
trace record must arrive with none remapped, and the invariant pass must
see no violation.  A failed check exits 1 and counts all of the run's
requests as failed.

Without ``--workload`` it runs every workload, untraced then traced, each
in its own process, and prints all of their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (simulated requests that arrived), ``failed``
and ``metrics`` (``name -> {"value", "unit"}``; a per-layer value is null
when the function it measures does not exist at this revision).
"""

from __future__ import annotations

import os

# Serial execution: no BLAS worker threads (set before numpy is imported).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Workload, build_config, build_trace  # noqa: E402

#: end-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "ticks_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qos_satisfaction": "ratio",
    "be_throughput": "1/s",
    "utilization": "ratio",
    "lc_latency_p50_ms": "ms",
    "lc_latency_p99_ms": "ms",
}

#: set-up samples per run at least (each timed repeat gives one, and a
#: set-up-only build follows it; the rest are made at the end).
SETUP_SAMPLES = 20
#: timed repeats per run at least, so every run cross-checks fingerprints.
MIN_REPEATS = 2


def clock_ns() -> int:
    """Host time: CPU time of this thread, in ns.

    The benchmark runs serially in one thread (and one BLAS thread), so
    this is the program's whole cost.  Unlike wall time, it leaves out the
    time the thread waits while other processes, or other tenants of a
    shared host, hold the CPU.
    """
    return time.thread_time_ns()


#: iterations of the calibration loop in one sample.
CALIBRATION_LOOPS = 250_000
#: host seconds of one sample on the reference host (a 2-vCPU Xeon KVM
#: guest with Python 3.11.7), so reported host times read as seconds there.
REFERENCE_SAMPLE_S = 0.025
#: host seconds between samples (about 5 % of the run goes to them).
CALIBRATION_EVERY_S = 0.5


class Calibration:
    """The host's speed while a run measures, from a fixed pure-Python loop.

    A shared host's speed drifts by up to 1.5x over minutes as other
    tenants come and go, which CPU time does not remove.  The program is
    mostly interpreted Python, and over 35 s windows its host time follows
    this loop's (correlation 0.8 to 0.95 on a 2-vCPU KVM guest), so
    dividing by the loop's time over the run cuts the spread between
    runs made minutes apart by half or more: on ``k8s-baseline``, the
    quartile spread of ``ticks_per_s`` over 35 s windows fell from 0.16 and
    0.25 to 0.08 in two five-minute samples.  The loop is the benchmark's
    own code and never changes with the program, so a slower program still
    reads slower.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.total_s = 0.0
        self.next_ns = 0

    def sample(self) -> None:
        start = clock_ns()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        end = clock_ns()
        self.samples.append((end - start) / 1e9)
        self.total_s += self.samples[-1]
        self.next_ns = end + int(CALIBRATION_EVERY_S * 1e9)

    def poll(self) -> None:
        """Take a sample if one is due."""
        if clock_ns() >= self.next_ns:
            self.sample()

    def scale(self, average=statistics.fmean) -> float:
        """Factor from host seconds to reference seconds over the samples'
        span: the mean matches a total over that span, the median a median.
        """
        return REFERENCE_SAMPLE_S / average(self.samples)


def import_program(src: str) -> None:
    """Put the program's ``src`` directory first on the import path."""
    path = Path(src).resolve()
    if not (path / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {path}")
    sys.path.insert(0, str(path))


@dataclass
class Run:
    """One simulated horizon."""

    setup_s: float
    #: host seconds (``clock_ns``) of all ticks of the horizon.
    host_s: float
    tick_ns: List[int]
    metrics: Any
    records: int
    dropped_be: int
    system: Any


def build(wl: Workload, seed: int, structure_seed: int, duration_ms: float, **options):
    """Set-up as a user pays it: trace, system, runner (zero ticks run).

    It starts from a collected heap, as in a fresh process, so that
    garbage left by earlier repeats does not shift when collections run.
    """
    from repro.core.tango import TangoSystem

    gc.collect()
    start = clock_ns()
    trace = build_trace(wl, seed, structure_seed, duration_ms)
    system = TangoSystem(build_config(wl, structure_seed, duration_ms, **options))
    system.run(trace, until_ms=0)
    return system, len(trace), (clock_ns() - start) / 1e9


def simulate(
    wl: Workload,
    seed: int,
    structure_seed: int,
    duration_ms: float,
    tracer: Optional[layers.Tracer] = None,
    calibration: Optional[Calibration] = None,
) -> Run:
    """Build and run one horizon, timing every tick from outside.

    With ``calibration``, samples due are taken between ticks; their time
    is left out of ``host_s``."""
    if tracer is not None:
        layers.wrap_program(tracer)
    system, records, setup_s = build(wl, seed, structure_seed, duration_ms)
    runner = system.last_runner
    pipeline = runner.pipeline
    if tracer is not None:
        layers.wrap_pipeline(tracer, pipeline)
    run_tick = pipeline.run_tick
    tick_ns: List[int] = []

    def timed_tick(ctx) -> None:
        if tracer is not None:
            tracer.tick = len(tick_ns)
        start = clock_ns()
        run_tick(ctx)
        tick_ns.append(clock_ns() - start)
        if calibration is not None:
            calibration.poll()

    pipeline.run_tick = timed_tick
    calibrated_s = calibration.total_s if calibration is not None else 0.0
    start = clock_ns()
    metrics = runner.run()
    host_s = (clock_ns() - start) / 1e9
    if calibration is not None:
        host_s -= calibration.total_s - calibrated_s
    if tracer is not None:
        tracer.tick = -1
    return Run(
        setup_s, host_s, tick_ns, metrics, records, runner.dropped_be, system
    )


def invariant_pass(
    wl: Workload, seed: int, structure_seed: int, duration_ms: float
) -> Tuple[Optional[Any], List[str]]:
    """Untimed run with the strict invariant checker; (metrics, problems)."""
    from repro.sim.invariants import InvariantViolationError

    system, _, _ = build(
        wl, seed, structure_seed, duration_ms,
        check_invariants=True, invariant_mode="strict",
    )
    try:
        metrics = system.last_runner.run()
    except InvariantViolationError as exc:
        return None, [f"invariant pass: {exc}"]
    if metrics.invariant_violations:
        return metrics, [
            f"invariant pass: {metrics.invariant_violations} violations "
            f"{metrics.invariant_violations_by_law}"
        ]
    return metrics, []


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def fingerprint(metrics) -> Dict[str, Any]:
    from repro.metrics.fingerprint import metrics_fingerprint

    return metrics_fingerprint(metrics)


def compare_fingerprints(labelled: List[Tuple[str, Dict[str, Any]]]) -> List[str]:
    """Every fingerprint must equal the first; one problem per mismatch."""
    from repro.metrics.fingerprint import fingerprint_diff

    problems = []
    first_label, first = labelled[0]
    for label, other in labelled[1:]:
        rows = fingerprint_diff(first, other)
        if rows:
            field, want, got = rows[0]
            problems.append(
                f"fingerprint of {label} differs from {first_label}: "
                f"{field} {want} != {got} ({len(rows)} fields)"
            )
    return problems


def check_arrivals(label: str, run: Run) -> List[str]:
    m = run.metrics
    problems = []
    if m.lc_arrived + m.be_arrived != run.records:
        problems.append(
            f"{label}: {m.lc_arrived + m.be_arrived} arrivals for "
            f"{run.records} trace records"
        )
    if m.trace_remapped:
        problems.append(f"{label}: {m.trace_remapped} trace records remapped")
    return problems


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def end_to_end(
    runs: List[Run],
    setups: List[float],
    tick_scale: float,
    setup_scale: float,
    rss_mb: float,
    horizon_ms: float,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """(metric values, sample-count notes) over the timed repeats.

    The repeats do identical, deterministic work, but a shared host's speed
    swings by up to 2x between fast and slow phases of seconds, even in
    CPU time (another tenant on the same core slows every instruction).
    The fastest repeat catches a fast phase in some runs and not in others,
    so it is a noisy estimate.  The host-time metrics therefore pool every
    repeat: ``ticks_per_s`` is all ticks over all their host time, and the
    percentiles are over all ticks, so each moves smoothly with the share
    of the run that fell in slow phases.  Tick times are multiplied by
    ``tick_scale`` and set-up times by ``setup_scale`` (``Calibration``).
    """
    import numpy as np

    tick_ms = np.concatenate([run.tick_ns for run in runs]) * (tick_scale / 1e6)
    m = runs[0].metrics  # every repeat's fingerprint is checked equal
    latencies = m.lc_latencies_ms
    values = {
        "ticks_per_s": len(tick_ms)
        / (tick_scale * sum(run.host_s for run in runs)),
        "tick_ms_p50": float(np.percentile(tick_ms, 50)),
        "tick_ms_p95": float(np.percentile(tick_ms, 95)),
        "setup_s": setup_scale * statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "qos_satisfaction": m.qos_satisfaction_rate,
        "be_throughput": m.be_completed / (horizon_ms / 1000.0),
        "utilization": m.mean_utilization,
        "lc_latency_p50_ms": float(np.percentile(latencies, 50)),
        "lc_latency_p99_ms": float(np.percentile(latencies, 99)),
    }
    ticks = f"{len(tick_ms)} ticks of {len(runs)} runs"
    samples = {
        "ticks_per_s": ticks,
        "tick_ms_p50": ticks,
        "tick_ms_p95": ticks,
        "setup_s": f"{len(setups)} set-ups",
        "peak_rss_mb": "1 process, after its first run",
        "qos_satisfaction": f"{m.lc_arrived} LC arrived",
        "be_throughput": f"{m.be_completed} BE completed",
        "utilization": f"{len(m.utilization)} periods",
        "lc_latency_p50_ms": f"{len(latencies)} LC latencies",
        "lc_latency_p99_ms": f"{len(latencies)} LC latencies",
    }
    return values, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
@dataclass
class Result:
    attempted: int
    problems: List[str]
    #: name -> (value or None when missing, unit, sample note)
    metrics: Dict[str, Tuple[Optional[float], str, str]]

    @property
    def correct(self) -> bool:
        return not self.problems

    def payload(self) -> Dict[str, Any]:
        attempted = max(1, self.attempted)
        return {
            "correct": self.correct,
            "attempted": attempted,
            "failed": 0 if self.correct else attempted,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }


def measure(
    wl: Workload,
    seed: int,
    structure_seed: int,
    seconds: float,
    duration_ms: float,
) -> Result:
    """The untraced end-to-end run of one workload."""
    runs: List[Run] = []
    setups: List[float] = []
    # Ticks are scaled by samples taken between ticks, set-ups by one taken
    # just before each set-up, so each sees the host's phases its own
    # samples fell in.
    calibration = Calibration()
    setup_calibration = Calibration()

    def set_up() -> None:
        setup_calibration.sample()
        setups.append(build(wl, seed, structure_seed, duration_ms)[2])

    start = time.perf_counter()
    while True:
        setup_calibration.sample()
        run = simulate(wl, seed, structure_seed, duration_ms, calibration=calibration)
        run.system = None  # keep only what the metrics need
        runs.append(run)
        if len(runs) == 1:
            # later repeats reuse a grown heap; their count varies with speed
            rss = peak_rss_mb()
        setups.append(run.setup_s)
        set_up()
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_REPEATS and elapsed + elapsed / len(runs) > seconds:
            break
    while len(setups) < SETUP_SAMPLES or time.perf_counter() - start < seconds:
        set_up()

    problems: List[str] = []
    for i, run in enumerate(runs):
        problems += check_arrivals(f"repeat {i + 1}", run)
    problems += compare_fingerprints(
        [(f"repeat {i + 1}", fingerprint(r.metrics)) for i, r in enumerate(runs)]
    )

    tick_scale = calibration.scale()
    setup_scale = setup_calibration.scale(statistics.median)
    values, samples = end_to_end(
        runs, setups, tick_scale, setup_scale, rss, wl.horizon_ms(duration_ms)
    )
    m = runs[0].metrics
    print(
        f"# {wl.name}: host times to reference seconds: ticks x "
        f"{tick_scale:.4f} ({len(calibration.samples)} calibration samples, "
        f"unscaled {values['ticks_per_s'] * tick_scale:.6g} ticks/s), "
        f"set-ups x {setup_scale:.4f} (unscaled "
        f"{values['setup_s'] / setup_scale:.6g} s)"
    )
    print(
        f"# {wl.name}: {len(runs)} timed runs; per run {runs[0].records} "
        f"requests arrived, {m.lc_abandoned} LC abandoned, "
        f"{runs[0].dropped_be} BE dropped"
    )
    return Result(
        attempted=sum(run.records for run in runs),
        problems=problems,
        metrics={
            name: (values[name], unit, samples[name])
            for name, unit in END_TO_END.items()
        },
    )


def measure_traced(
    wl: Workload,
    seed: int,
    structure_seed: int,
    duration_ms: float,
    spans_path: Path,
) -> Result:
    """An untraced run, a traced run and the invariant pass: per-layer
    metrics and the tracing overhead."""
    reference = simulate(wl, seed, structure_seed, duration_ms)
    reference.system = None
    tracer = layers.Tracer()
    try:
        traced = simulate(wl, seed, structure_seed, duration_ms, tracer=tracer)
    finally:
        tracer.unwrap_all()
    checked, problems = invariant_pass(wl, seed, structure_seed, duration_ms)
    problems += check_arrivals("untraced run", reference)
    problems += check_arrivals("traced run", traced)
    labelled = [
        ("untraced run", fingerprint(reference.metrics)),
        ("traced run", fingerprint(traced.metrics)),
    ]
    if checked is not None:
        labelled.append(("invariant pass", fingerprint(checked)))
    problems += compare_fingerprints(labelled)
    values = layers.layer_metrics(tracer, traced.system)
    values[layers.OVERHEAD[0]] = traced.host_s / reference.host_s
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(
        str(spans_path),
        {"workload": wl.name, "seed": seed, "structure_seed": structure_seed},
    )
    print(
        f"# {wl.name}: {len(tracer.span_name)} spans over "
        f"{len(traced.tick_ns)} ticks written to {spans_path}"
    )
    for name in tracer.missing:
        print(f"# missing at this revision: {name}")
    note = f"1 traced run, {len(traced.tick_ns)} ticks"
    return Result(
        attempted=reference.records + traced.records,
        problems=problems,
        metrics={
            name: (values[name], unit, note)
            for name, unit in layers.per_layer_names()
        },
    )


def print_result(workload: str, result: Result) -> None:
    for name, (value, unit, samples) in result.metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{workload:13} {name:44} {shown:>12} {unit:6} ({samples})")
    for problem in result.problems:
        print(f"CHECK FAILED {workload}: {problem}")


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"], default="all"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="arrival seed (default: the workload's seed)",
    )
    parser.add_argument(
        "--structure-seed", type=int, default=None,
        help="topology and trace-shape seed (default: the workload's seed)",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="arrival window (default: the workload's; tests shorten it)",
    )
    parser.add_argument("--src", default="src", help="the program's src dir")
    parser.add_argument("--out-dir", default=".perfbench_out")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    structure_seed = wl.seed if args.structure_seed is None else args.structure_seed
    duration_ms = wl.duration_ms if args.duration_ms is None else args.duration_ms
    try:
        if args.trace:
            spans = Path(args.out_dir) / f"spans-{wl.name}-seed{seed}.json"
            result = measure_traced(wl, seed, structure_seed, duration_ms, spans)
        else:
            result = measure(wl, seed, structure_seed, args.seconds, duration_ms)
    except Exception:  # report the crash as a failed run, then exit 1
        traceback.print_exc()
        result = Result(attempted=1, problems=["run raised"], metrics={})
    print_result(wl.name, result)
    print(json.dumps(result.payload()), flush=True)
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one process each."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(trace), "--src", args.src,
                "--out-dir", args.out_dir,
            ]
            for flag, value in (
                ("--seed", args.seed),
                ("--structure-seed", args.structure_seed),
                ("--duration-ms", args.duration_ms),
            ):
                if value is not None:
                    command += [flag, str(value)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                payload = json.loads(lines[-1])
            except json.JSONDecodeError:
                payload = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            combined["correct"] &= payload["correct"] and proc.returncode == 0
            combined["attempted"] += payload["attempted"]
            combined["failed"] += payload["failed"]
            for metric, entry in payload["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_program(args.src)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
