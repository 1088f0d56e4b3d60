"""Fresh-process benchmark of the sclkit command line.

    python3 perfbench/run.py --workload flip --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Every request is one ``python -m sclkit`` process running this checkout's
``src`` (closed loop, one client), because that is what a user gets: an
in-process repeat would hit warm caches a fresh process never has.  A run
sets up (seeded inputs, and for ``verify`` the certificate files) several
times and reports the median, then sends a fixed number of whole blocks of
requests, sized so that they take about ``--seconds`` on the reference
machine, and checks every output.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: one block, each request sent untraced and through
``trace_entry.py`` back to back, and the difference is the tracing overhead.
A traced run is correct only if the self times add up to the traced request
time within that overhead.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without sclkit
sources next to this directory the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import spawn
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S, so
# that the cheap set-ups (one process spawn, ~0.1 s) get a median of about
# ten and the verify set-up (~1.3 s) is not repeated for a minute.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
TAIL_BEYOND = 10

# Blocks sent per 22 s of --seconds.  At 22 s every run has at least 22
# samples, so that its tail lies above its median, and takes 15-32 s on the
# reference machine (see baseline.json).  The count depends on --seconds
# only, never on how fast the machine is at the moment, so every run of a
# workload sends the same requests in number and shape and its tail is always
# the same percentile.  A traced run sends one block.
BLOCKS_PER_22_S = {"flip": 3, "search": 1, "verify": 2, "paper-suite": 2}

E2E_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class Record:
    request: workloads.Request
    outcome: spawn.Outcome
    failure: str | None


class Bench:
    """Spawns CLI requests for one workload, writing only under ``out``."""

    def __init__(self, out: Path):
        self.out = out
        self.env = spawn.child_env(SRC, out / "tmp")
        out.mkdir(parents=True, exist_ok=True)

    def spawn(self, cmd: list[str]) -> spawn.Outcome:
        return spawn.run(cmd, env=self.env, cwd=ROOT, scratch=self.out)

    def preflight(self) -> None:
        """The CLI must import from this checkout, not from an installed copy."""
        got = self.spawn([sys.executable, "-c", "import sclkit.cli; print(sclkit.cli.__file__)"])
        if got.returncode != 0 or not Path(got.stdout.strip()).resolve().is_relative_to(SRC):
            raise SetupError(f"sclkit does not import from {SRC}: {got.stderr.strip()[-300:]}")

    def write_file(self, argv: tuple[str, ...]) -> None:
        got = self.spawn([sys.executable, "-m", "sclkit", *argv])
        if got.returncode != 0:
            raise SetupError(f"set-up command {argv} exited {got.returncode}: {got.stderr[-300:]}")

    def send(self, req: workloads.Request, trace_to: Path | None = None) -> Record:
        if trace_to is None:
            cmd = [sys.executable, "-m", "sclkit", *req.argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_entry.py"), str(trace_to), trace_to.stem,
                   repr(time.perf_counter()), "--", *req.argv]
        outcome = self.spawn(cmd)
        failure = outcome.limit or workloads.check(req, outcome.returncode, outcome.stdout)
        return Record(req, outcome, failure)


def set_up(bench: Bench, name: str, seed: int):
    """Build the workload repeatedly; return it, the median time (``setup_s``)
    and the number of set-ups."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed)
        bench.preflight()
        if hasattr(workload, "setup"):
            workload.setup(bench.out / "files", bench.write_file)
        workload.block(0)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times), len(times)


def read_trace(path: Path, seconds: float) -> dict:
    """A traced child's span document, plus ``exit_s``: the interpreter
    teardown after the write-out, which untraced requests pay too."""
    text, _, dumped_at = path.read_text().partition("\n")
    doc = json.loads(text)
    doc["exit_s"] = doc["spawned_at"] + seconds - float(dumped_at)
    return doc


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, rank): the highest percentile with at least TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], rank


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    bench = Bench(HERE / "out" / name)
    workload, setup_s, setups = set_up(bench, name, seed)
    plain: list[Record] = []
    traced: list[Record] = []
    docs: list[dict] = []
    trace_dir = bench.out / "trace"
    trace_dir.mkdir(exist_ok=True)
    blocks = 1 if trace else max(1, round(BLOCKS_PER_22_S[name] * seconds / 22))
    start = time.perf_counter()
    for i in range(blocks):
        for j, req in enumerate(workload.block(i)):
            if not trace:
                plain.append(bench.send(req))
                continue
            # each request untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels from the overhead
            path = trace_dir / f"{i}.{j}.json"
            pair = [bench.send(req), bench.send(req, trace_to=path)] if j % 2 == 0 else \
                [bench.send(req, trace_to=path), bench.send(req)][::-1]
            plain.append(pair[0])
            traced.append(pair[1])
            if path.exists():
                docs.append(read_trace(path, pair[1].outcome.seconds))
                path.unlink()
    wall = time.perf_counter() - start

    records = plain + traced
    failures = [r for r in records if r.failure]
    (bench.out / "requests.json").write_text(json.dumps([
        {"kind": r.request.kind, "argv": r.request.argv, "traced": k >= len(plain),
         "seconds": r.outcome.seconds, "peak_rss_mb": r.outcome.peak_rss_mb,
         "failure": r.failure} for k, r in enumerate(records)], indent=1))
    lines = [f"workload {name}  seed {seed}  {blocks} block(s) in {wall:.2f} s  "
             f"(closed loop, 1 client, one fresh process per request)"]
    lines += [f"FAILED {r.request.kind} {' '.join(r.request.argv)}: {r.failure}"
              for r in failures]
    if trace:
        metrics = layers.aggregate(docs, [r.outcome.seconds for r in traced],
                                   [r.outcome.seconds for r in plain])
        units = layers.metric_units()
        lines += layer_report(metrics, units)
        (bench.out / "spans.json").write_text(json.dumps(
            [{"request_id": d["request_id"], "spans": d["spans"]} for d in docs]))
    else:
        latencies = [r.outcome.seconds if r.failure is None else spawn.TIMEOUT_S for r in plain]
        tail_s, rank = tail(latencies)
        done = len(plain) - len(failures)
        metrics = {
            "setup_s": setup_s,
            "requests_per_s": done / wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": max(r.outcome.peak_rss_mb for r in plain),
        }
        units = E2E_UNITS
        notes = {
            "setup_s": f"median of {setups} set-ups",
            "requests_per_s": f"{done} completed in {wall:.2f} s",
            "latency_tail_s": f"p{100 * rank / len(latencies):.1f} of {len(latencies)} "
                              f"samples ({len(latencies) - rank} beyond)",
        }
        lines += [f"  {k:<16} {v:>10.4f} {units[k]:<4} {notes.get(k, '')}"
                  for k, v in metrics.items()]
        lines.append(f"  {'error_rate':<16} {len(failures) / len(records):>10.4f} ratio "
                     f"{len(failures)} failed of {len(records)}")
    # a traced run is correct only when its self times account for the request
    correct = not failures and (not trace or layers.accounted(metrics))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def layer_report(metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    lines = []
    for layer, target in layers.SHOULD_MOVE.items():
        rows = [f"    {k:<48} {v:>14.6g} {units[k]}" for k, v in metrics.items()
                if k.startswith(layer + ".") and v]
        if rows:
            lines += [f"  {layer}  (should move {target})"] + rows
    lines.append("  tracing overhead and self-time account (per request):")
    lines += [f"    {k:<48} {metrics[k]:>14.6g} {units[k]}" for k, _ in layers.TRACE]
    lines.append(f"    self times add up to the traced request time within the overhead: "
                 f"{'yes' if layers.accounted(metrics) else 'NO'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sclkit" / "cli.py").is_file():
        print(f"error: no sclkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
