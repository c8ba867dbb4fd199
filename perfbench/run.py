"""Benchmark for the kidempotent package.

    python3 perfbench/run.py --workload census_n3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and from nowhere else. One process, one thread, one
client in a closed loop. With ``--trace 0`` a fixed number of whole
passes of the workload's fixed work run, ``--seconds`` divided by the
workload's nominal pass time, so both sides of a comparison make the
same tries; the end-to-end metrics are printed. Set-up (a fresh
interpreter importing the package and building the seeded inputs) is
timed in child processes spread evenly between the passes and reported
as the fastest. With ``--trace 1`` a warm-up pass runs, then five
untraced and five traced passes in turn, and the per-layer metrics of
one pass are printed; the trace overhead is the difference of the median
traced and untraced pass wall times.

Every response is checked outside the timed region. The last line of
standard output is one JSON object: ``correct`` is false when any
response was wrong; ``failed`` counts requests that gave a wrong
response or raised; ``attempted`` counts all requests sent. Lines before
it, starting with ``#``, record the machine, the seed, the sample counts
and latency by request kind, and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 30
TRACE_ROUNDS = 5


def import_package():
    """Import ``kidempotent`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "kidempotent" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kidempotent

    if Path(kidempotent.__file__).resolve().parent != SRC / "kidempotent":
        print(f"perfbench: imported kidempotent from {kidempotent.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def build(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, ROOT, workdir)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build inputs, print seconds."""
    start = time.perf_counter()
    import_package()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        build(workload, seed, workdir)
        print(time.perf_counter() - start)
    finally:
        remove_workdir(workdir)


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def measure_setup(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to import the package and build the inputs."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: dict[str, list[float]] = {}  # by request kind
        self.by_request: dict[int, list[float]] = {}  # by position in the pass
        self.notes: list[str] = []


def run_pass(workload, tally: Tally) -> float:
    """Send every request of one pass in order, then check the responses.

    Returns the pass's wall time; the checks are not part of it.
    """
    clock = time.perf_counter
    records = []
    start = clock()
    for request in workload.requests:
        sent = clock()
        try:
            response, error = workload.run(request), None
        except Exception as exc:  # a raising request is counted as failed, not fatal
            response, error = None, f"{type(exc).__name__}: {exc}"
        records.append((request, clock() - sent, response, error))
    wall = clock() - start
    for position, (request, latency, response, error) in enumerate(records):
        tally.attempted += 1
        tally.by_request.setdefault(position, []).append(latency)
        tally.latencies.setdefault(workload.tag(request), []).append(latency)
        problem = error if error is not None else workload.check(request, response)
        if problem is not None:
            tally.failed += 1
            tally.wrong += error is None
            tally.notes.append(f"{workload.tag(request)}: {problem}")
    return wall


def timed_run(workload, passes: int, tally: Tally, probe_setup) -> dict[str, float]:
    """``passes`` whole passes with set-up probes between them; end-to-end metrics.

    Each request's time is its fastest try in the run, and set-up time
    is the fastest probe. The host's speed drifts by up to 2x over tens
    of seconds, and the fastest try varied least between runs; the
    median try followed the drift. Probes are spread over the run so
    that they meet the same drift as the passes.
    """
    probes_before = Counter(i * passes // SETUP_PROBES for i in range(SETUP_PROBES))
    setup = []
    for index in range(passes):
        setup.extend(probe_setup() for _ in range(probes_before[index]))
        run_pass(workload, tally)
    fastest = [min(values) for values in tally.by_request.values()]
    wall = sum(fastest)
    tally.notes.insert(0, f"passes={passes} requests_per_pass={len(workload.requests)} setup_probes={len(setup)}")
    return {
        "setup_s": min(setup),
        "wall_s": wall,
        "matrices_per_s": workload.candidates_per_pass / wall,
        "latency_p50_ms": statistics.median(fastest) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, tally: Tally) -> dict[str, float]:
    """Per-layer metrics of one pass, from untraced and traced passes in turn.

    The overhead is the median traced pass minus the median untraced one.
    """
    from tracing import Tracer

    run_pass(workload, tally)  # warm-up: first file reads, first checks
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(TRACE_ROUNDS):
        untraced.append(run_pass(workload, tally))
        tracer.install()
        try:
            traced.append(run_pass(workload, tally))
        finally:
            tracer.restore()
    if tracer.missing:
        tally.notes.append("not traced (name not found): " + ", ".join(tracer.missing))
    return tracer.metrics(statistics.median(traced) - statistics.median(untraced), TRACE_ROUNDS)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3"):
                info["caches"][f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def latency_summary(tally: Tally) -> dict[str, dict]:
    """p50, and p90 once at least ten samples lie beyond it, per request kind."""
    out = {}
    for tag, values in sorted(tally.latencies.items()):
        values = sorted(values)
        row = {"count": len(values), "p50_ms": round(statistics.median(values) * 1000, 3)}
        if len(values) >= 100:
            row["p90_ms"] = round(values[int(0.9 * len(values))] * 1000, 3)
        out[tag] = row
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_package()
    workdir = WORK / str(os.getpid())
    tally = Tally()
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.trace:
            metrics = traced_run(workload, tally)
        else:
            passes = max(1, round(args.seconds / workload.PASS_S))
            metrics = timed_run(workload, passes, tally, lambda: measure_setup(args.workload, args.seed))
    finally:
        remove_workdir(workdir)
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    print("# machine " + json.dumps(machine()))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace}))
    print("# latency " + json.dumps(latency_summary(tally)))
    for note in tally.notes[:10]:
        print("# " + note)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
