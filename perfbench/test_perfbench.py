"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench

Each workload runs one small pass and must come out clean; a planted
wrong expected answer must show up as a failed request.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from kidempotent import oracle  # noqa: E402
from kidempotent.structure import StructureError, StructureErrorKind  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402


def one_pass(workload) -> run.Tally:
    tally = run.Tally()
    run.run_pass(workload, tally)
    return tally


def test_census_matches_golden(tmp_path):
    tally = one_pass(workloads.Census(1, run.ROOT, tmp_path))
    assert (tally.attempted, tally.failed) == (6, 0)


def test_census_planted_wrong_count_fails(tmp_path):
    workload = workloads.Census(1, run.ROOT, tmp_path)
    workload.golden[(3, 2)] += 1
    tally = one_pass(workload)
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 1, 1)


def test_timed_run_makes_the_passes_asked_for(tmp_path):
    workload = workloads.Census(1, run.ROOT, tmp_path)
    probes = []
    tally = run.Tally()
    metrics = run.timed_run(workload, 2, tally, lambda: probes.append(0.5) or 0.5)
    assert (tally.attempted, tally.failed) == (12, 0)
    assert len(probes) == run.SETUP_PROBES
    assert metrics["setup_s"] == 0.5


def test_sweep_small_slice_agrees_with_structural_route(tmp_path):
    workload = workloads.SweepN5(1, run.ROOT, tmp_path, slice_bits=6, slices=2)
    workload.requests.append((0, 64))
    tally = one_pass(workload)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert any(workload._verified[(0, 64)])


def test_sweep_planted_structural_rejection_fails(tmp_path, monkeypatch):
    workload = workloads.SweepN5(1, run.ROOT, tmp_path, slice_bits=6, slices=1)
    workload.requests = [(0, 64)]
    reject = StructureError(StructureErrorKind.POWER_MISMATCH, (0, 0))
    monkeypatch.setattr(workloads, "decompose", lambda matrix, k: reject)
    tally = one_pass(workload)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_sweep_slices_have_seed_independent_density():
    profiles = []
    for seed in (1, 2):
        workload = workloads.SweepN5(seed, run.ROOT, Path("."), slice_bits=10, slices=16)
        profiles.append(sorted(start.bit_count() for start, _ in workload.requests))
    assert profiles[0] == profiles[1]


def tiny_analyze(tmp_path):
    return workloads.AnalyzeLarge(3, run.ROOT, tmp_path, mix={20: (2, workloads.BIG_K, (7,))})


def test_analyze_order_20_requests_check_out(tmp_path):
    workload = tiny_analyze(tmp_path)
    tally = one_pass(workload)
    # two members, one near-miss, three malformed files, one extremal request
    assert tally.attempted == 7
    assert tally.wrong == 0
    # A non-ASCII file that makes the command raise is counted as failed.
    raised = [note for note in tally.notes if note.startswith("malformed.non_ascii: UnicodeDecodeError")]
    assert tally.failed == len(raised)


def test_analyze_planted_wrong_index_fails(tmp_path):
    workload = tiny_analyze(tmp_path)
    member = next(r for r in workload.requests if r.kind == "member")
    member.expected["index"] += 1
    baseline = one_pass(tiny_analyze(tmp_path)).failed
    tally = one_pass(workload)
    assert tally.failed == baseline + 1
    assert tally.wrong == 1


def test_member_generator_matches_package():
    import random

    from kidempotent import decompose, idempotency_index, is_k_idempotent
    from kidempotent.matrix01 import Matrix01

    rng = random.Random(5)
    for n, k in ((12, 7), (40, 13), (40, workloads.BIG_K)):
        member = workloads.make_member(rng, n, k)
        matrix = Matrix01(n, tuple(member.rows))
        assert is_k_idempotent(matrix, k)
        d = decompose(matrix, k)
        assert (d.source_count, d.sink_count) == (member.r, member.s)
        assert sorted(member.cycle_lengths) == list(d.cycle_lengths)
        assert idempotency_index(matrix) == workloads.lcm(*member.cycle_lengths) + 1


def traced_counts(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tally = one_pass(workloads.Census(1, run.ROOT, tmp_path))
    finally:
        tracer.restore()
    assert tally.failed == 0
    return tracer.metrics(0.0)


def test_tracer_counts_repeat_and_wrappers_are_removed(tmp_path):
    original = oracle._rows_k_idempotent
    first = traced_counts(tmp_path)
    assert oracle._rows_k_idempotent is original
    second = traced_counts(tmp_path)
    for name in ("matrix01.sat_mul.calls", "structure.analyze.calls", "oracle.candidates", "oracle.members"):
        assert first[name] == second[name] > 0
    assert first["oracle.candidates"] == 6 * 2**9
    assert first["oracle.members"] == 50 + 74 + 52 + 74 + 50 + 76


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_every_declared_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_benchmark(run.ROOT, "--workload", "sweep_n5", "--seed", "4", "--seconds", "0.1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {entry["name"] for entry in spec[key]}


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "census_n3", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
