"""Tests of the benchmark itself, on short horizons.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ab  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bench.import_program(str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_MS = "500"


def run_cli(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        wl = WORKLOADS[entry["name"]]
        assert entry["why"].startswith(wl.why)
        assert f"seed {wl.seed}, held-out seed {wl.held_out_seed}" in entry["why"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        layers.per_layer_names()
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(workload):
    proc, result = run_cli(
        "--workload", workload, "--seconds", "0", "--duration-ms", SHORT_MS,
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: e["unit"] for n, e in result["metrics"].items()} == bench.END_TO_END
    for name, unit in bench.END_TO_END.items():
        line = rf"^{workload}\s+{name}\s+\S+\s+{re.escape(unit)}\s+\(\d+ "
        assert re.search(line, proc.stdout, re.M), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_traced_run_reports_every_layer(workload, tmp_path):
    proc, result = run_cli(
        "--workload", workload, "--duration-ms", SHORT_MS, "--trace", "1",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    metrics = result["metrics"]
    assert [(n, e["unit"]) for n, e in metrics.items()] == layers.per_layer_names()
    assert all(e["value"] is not None for e in metrics.values())
    horizon_ms = WORKLOADS[workload].horizon_ms(float(SHORT_MS))
    assert metrics["sim.pipeline.run_tick.calls"]["value"] == horizon_ms / 25

    spans = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
    assert spans["missing"] == []
    rows = spans["spans"]
    for name, start, end, parent, tick in rows:
        assert start <= end
        if name.startswith("sim.pipeline.") and name != "sim.pipeline.run_tick":
            assert rows[parent][0] == "sim.pipeline.run_tick"
            assert rows[parent][4] == tick >= 0
        if name in ("workloads.trace.generate", "core.tango.init"):
            assert parent == -1 and tick == -1


def test_calibration_samples_are_left_out_of_host_time(monkeypatch):
    monkeypatch.setattr(bench, "CALIBRATION_EVERY_S", 0.0)  # after every tick
    calibration = bench.Calibration()
    wl = WORKLOADS["k8s-baseline"]
    run = bench.simulate(wl, 3, 3, float(SHORT_MS), calibration=calibration)
    assert len(calibration.samples) == len(run.tick_ns) > 0
    ticks_s = sum(run.tick_ns) / 1e9
    assert ticks_s <= run.host_s < ticks_s + 0.1 * calibration.total_s
    assert calibration.scale() == pytest.approx(
        bench.REFERENCE_SAMPLE_S * len(calibration.samples) / calibration.total_s
    )


def test_perturbed_fingerprint_is_caught(monkeypatch):
    real = bench.fingerprint
    seen = []

    def perturbed(metrics):
        fp = real(metrics)
        seen.append(fp)
        if len(seen) == 2:
            fp = dict(fp, lc_completed=fp["lc_completed"] + 1)
        return fp

    monkeypatch.setattr(bench, "fingerprint", perturbed)
    result = bench.measure(WORKLOADS["k8s-baseline"], 3, 3, 0, float(SHORT_MS))
    assert not result.correct
    assert any("fingerprint" in p and "lc_completed" in p for p in result.problems)
    payload = result.payload()
    assert payload["failed"] == payload["attempted"] > 0


def test_injected_invariant_violation_is_caught(monkeypatch, tmp_path):
    from repro.cluster.node import WorkerNode
    from repro.cluster.resources import ResourceVector

    real_step = WorkerNode.step

    def leaking_step(self, now_ms, dt_ms):
        out = real_step(self, now_ms, dt_ms)
        if now_ms == 100.0:  # book resources no request holds
            self.grant(ResourceVector(cpu=0.01))
        return out

    monkeypatch.setattr(WorkerNode, "step", leaking_step)
    result = bench.measure_traced(
        WORKLOADS["k8s-baseline"], 3, 3, float(SHORT_MS), tmp_path / "spans.json"
    )
    assert not result.correct
    assert any(p.startswith("invariant pass") for p in result.problems)


def test_renamed_function_is_reported_missing_not_zero(monkeypatch, tmp_path):
    renamed = []
    for layer in layers.LAYERS:
        if layer.name == "nn.a2c":
            layer = dataclasses.replace(
                layer,
                functions=(
                    ("act", "repro.nn.a2c:A2CAgent.act"),
                    ("train_on", "repro.nn.a2c:A2CAgent.train_renamed"),
                ),
            )
        renamed.append(layer)
    monkeypatch.setattr(layers, "LAYERS", tuple(renamed))
    result = bench.measure_traced(
        WORKLOADS["standard"], 3, 3, float(SHORT_MS), tmp_path / "spans.json"
    )
    assert result.correct  # the untimed checks never depend on the wrapper
    values = {name: value for name, (value, _, _) in result.metrics.items()}
    for key in ("calls", "total_ms", "self_ms"):
        assert values[f"nn.a2c.train_on.{key}"] is None
    assert values["nn.a2c.transitions"] is None
    assert values["nn.a2c.act.calls"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["missing"] == ["nn.a2c.train_on"]


def test_bare_directory_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "standard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "head, expected",
    [
        ([v * 1.3 for v in range(100, 110)], "gain"),
        (list(range(100, 110)), "within bound"),
        ([v * 0.7 for v in range(100, 110)], "worse"),
        ([60, 140, 70, 150, 65, 135, 80, 145, 75, 130], "unresolved"),
    ],
)
def test_ab_verdicts(head, expected):
    base = list(range(100, 110))
    assert ab.verdict(base, head, True, 0.1)[0] == expected
