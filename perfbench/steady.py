"""Steadiness self-check: are the end-to-end metrics steady within their bounds?

    python3 perfbench/steady.py run perfbench/out/steady-a.json
    python3 perfbench/steady.py check perfbench/out/steady-a.json [perfbench/out/steady-b.json]

``run`` runs every workload of BENCHMARK.json once per seed in SEEDS,
untraced, with its ``run_seconds``.  The workloads take turns within each
seed, so that a drift in machine speed during the set reaches all of them
alike.  It saves each metric's values with their median, quartiles and
spread, plus the machine it ran on.  ``check`` compares each spread
(interquartile distance over the median, quartiles from
``statistics.quantiles(values, n=4)``) with the metric's bound; the target
is a third of the bound.  Given a second set, it also checks that the two
medians of every metric differ by no more than the bound, in either
direction.  It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: list[float], second: list[float]) -> float:
    """How far the second median lies from the first, as a share of the first."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return abs(m2 - m1) / m1


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def run(out: Path) -> None:
    values: dict[str, dict[str, list[float]]] = {name: {} for name in WORKLOADS}
    for seed in SEEDS:
        for name in WORKLOADS:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=300)
            took = time.perf_counter() - started
            if proc.returncode != 0:
                raise SystemExit(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: outputs wrong\n{proc.stdout}")
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            values[name].setdefault("run_wall_s", []).append(took)
            print(f"{name} seed {seed}: {took:.1f} s  " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    doc = {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
           "run_seconds": SPEC["run_seconds"], "seeds": list(SEEDS),
           "workloads": {name: {k: summary(v) for k, v in metrics.items()}
                         for name, metrics in values.items()}}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")


def check(first: dict, second: dict | None) -> list[str]:
    """Print every metric's verdict; return "workload metric" for each one
    whose spread, or whose gap between the two sets, exceeds its bound."""
    over = []
    for name, metrics in first["workloads"].items():
        for metric, spec in BOUNDS.items():
            s = metrics[metric]
            bound = spec["bound"]
            verdict = "steady" if s["spread"] < bound / 3 else \
                "within bound" if s["spread"] <= bound else "SPREAD OVER BOUND"
            ok = s["spread"] <= bound
            line = (f"{name:<12} {metric:<15} median {s['median']:.4g}  spread {s['spread']:.3f}"
                    f" (bound {bound}: {verdict})")
            if second is not None:
                d = drift(s["values"], second["workloads"][name][metric]["values"])
                ok &= d <= bound
                line += f"  medians differ by {d:.3f} ({'ok' if d <= bound else 'OVER BOUND'})"
            print(line)
            if not ok:
                over.append(f"{name} {metric}")
    return over


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out", type=Path)
    p_check = sub.add_parser("check")
    p_check.add_argument("first", type=Path)
    p_check.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args()
    if args.command == "run":
        run(args.out)
        return 0
    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text()) if args.second else None
    return 1 if check(first, second) else 0


if __name__ == "__main__":
    raise SystemExit(main())
