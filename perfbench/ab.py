#!/usr/bin/env python3
"""Same-box A/B of two revisions of the program with this benchmark.

    python3 perfbench/ab.py --base main [--head <rev>] [--pairs 10] \\
        [--workloads standard,lc-geo,k8s-baseline] [--seed N] [--seconds S]

The ``src/`` of each named revision is exported with ``git archive`` into
a temporary directory outside the repository; without ``--head`` the head
side is the working tree's ``src/``.  Both sides run this checkout's
benchmark files (``run.py --src <dir>``) with identical settings, one
process per run, alternating which side runs first in each pair.

For every end-to-end metric on every workload it prints each side's median
and quartiles, the pairs the head won, and a verdict (choosing-metrics §8
and §6.5), using the bounds in ``BENCHMARK.json``:

* ``gain``: over at least ten pairs, the head wins at least 9/10 of them
  (ties count for neither) and the medians differ by more than the base's
  quartile spread;
* ``worse``: the head's median is worse than the base's by more than the
  bound;
* ``unresolved``: either side's quartile spread exceeds the bound, unless
  every head run reads better than every base run;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
#: choosing-metrics §8: a gain needs at least ten pairs.
MIN_PAIRS_FOR_GAIN = 10


def export_src(rev: str, into: Path) -> Path:
    """``git archive <rev> src`` unpacked under ``into``; returns its src."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def bench(src: Path, workload: str, seed: Optional[int], seconds: float) -> Dict:
    """One untraced benchmark run; its JSON result (raises on failure)."""
    command = [
        sys.executable, str(RUN), "--workload", workload,
        "--seconds", str(seconds), "--trace", "0", "--src", str(src),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} on {src}: output checks failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: List[float], head: List[float], higher_is_better: bool, bound: float
) -> Tuple[str, int]:
    """(verdict, pairs the head won) for one metric on one workload."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    if (
        len(base) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(base)
        and sign * (hmed - bmed) > bq3 - bq1
    ):
        return "gain", wins
    scale = abs(bmed) or 1.0
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    spread = max((bq3 - bq1) / scale, (hq3 - hq1) / (abs(hmed) or 1.0))
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (bmed - hmed) / scale > bound:
        return "worse", wins
    return "within bound", wins


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision (parent)")
    parser.add_argument("--head", default=None, help="git revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="standard,lc-geo,k8s-baseline")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    try:
        sides = {
            "base": export_src(args.base, tmp / "base"),
            "head": (
                export_src(args.head, tmp / "head")
                if args.head else HERE.parent / "src"
            ),
        }
        for workload in args.workloads.split(","):
            values: Dict[str, List[Dict]] = {"base": [], "head": []}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    values[side].append(
                        bench(sides[side], workload, args.seed, seconds)
                    )
                print(f"# {workload}: pair {pair + 1}/{args.pairs} done", flush=True)
            print(
                f"{'workload':13} {'metric':18} {'base median [q1, q3]':34} "
                f"{'head median [q1, q3]':34} {'won':>6}  verdict"
            )
            for metric in metrics:
                name = metric["name"]
                base = [run[name] for run in values["base"]]
                head = [run[name] for run in values["head"]]
                result, wins = verdict(
                    base, head, metric["better"] == "higher", metric["bound"]
                )
                b, h = quartiles(base), quartiles(head)
                print(
                    f"{workload:13} {name:18} "
                    f"{b[1]:<11.5g} [{b[0]:.5g}, {b[2]:.5g}]".ljust(66)
                    + f" {h[1]:<11.5g} [{h[0]:.5g}, {h[2]:.5g}]".ljust(35)
                    + f" {wins:>2}/{args.pairs:<3}  {result}"
                )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
