"""The benchmark's workloads: seeded inputs, one pass of fixed work, output checks.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returns. A workload object is built once per
process from the seed (its set-up); ``requests`` is the fixed work of one
pass, ``run`` sends one request, and ``check`` returns None when a
response is right or a one-line reason when it is wrong. ``check`` never
runs inside a timed region. ``PASS_S`` is the seconds one pass takes on
a 2-core Xeon VM with Python 3.11; the number of passes in a run is the
run length divided by it, fixed before any code under test runs.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field
from math import comb, lcm
from pathlib import Path

from kidempotent import cli, oracle
from kidempotent.matrix01 import Matrix01
from kidempotent.structure import CanonicalDecomposition, decompose

GOLDEN = Path("tests") / "golden" / "k_idempotent_counts.txt"

# k - 1 = 720720 = lcm(1..16), so every cycle length up to 16 is allowed.
BIG_K = 720721


def read_golden(root: Path) -> dict[tuple[int, int], int]:
    counts = {}
    for line in (root / GOLDEN).read_text().splitlines():
        n, k, total = (int(v) for v in line.split())
        counts[(n, k)] = total
    return counts


class Census:
    """The full census of one order for every k in the golden file.

    Every candidate goes through both routes, members are decomposed and
    rebuilt, and the density and triangular phases run. Inputs are tiny,
    so per-call overhead dominates. The seed only shuffles the k order:
    the work of a pass is the same for every seed. Order 3 keeps a call
    near 10 ms: on a host whose speed drifts, the fastest of many short
    calls varied between runs a third as much as that of order-4 calls,
    which take a second each.
    """

    N = 3
    PASS_S = 0.07

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.golden = read_golden(root)
        ks = sorted(k for (order, k) in self.golden if order == self.N)
        random.Random(seed).shuffle(ks)
        self.requests = [(self.N, k) for k in ks]
        self.candidates_per_pass = len(ks) << (self.N * self.N)

    def tag(self, request) -> str:
        return "census"

    def run(self, request):
        return oracle.census(*request)

    def check(self, request, report) -> str | None:
        n, k = request
        if report.total_k_idempotent != self.golden[(n, k)]:
            return f"census({n},{k}) counted {report.total_k_idempotent}, golden {self.golden[(n, k)]}"
        for flag in ("characterization_ok", "max_density_ok", "upper_triangular_ok"):
            if not getattr(report, flag):
                return f"census({n},{k}) {flag} is false"
        if report.mismatches:
            return f"census({n},{k}) reported {len(report.mismatches)} mismatches"
        return None


def _binomial_quantiles(trials: int, count: int) -> list[int]:
    """``count`` evenly spaced quantiles of Binomial(trials, 1/2)."""
    out = []
    for i in range(count):
        target = (i + 0.5) / count * 2**trials
        c, acc = 0, comb(trials, 0)
        while acc < target:
            c += 1
            acc += comb(trials, c)
        out.append(c)
    return out


class SweepN5:
    """Power-route-only membership over seeded slices of the order-5 index space.

    A request is one aligned slice of ``2**slice_bits`` indices, swept at
    k = 2 and at k = 7. The fixed high bits of the slices are drawn with
    a fixed popcount profile (quantiles of the binomial), so the density
    of the matrices swept, and with it the cost of a pass, does not
    depend on the seed.
    """

    n = 5
    ks = (2, 7)
    PASS_S = 0.4

    def __init__(self, seed: int, root: Path, workdir: Path, *, slice_bits: int = 10, slices: int = 16):
        high = self.n * self.n - slice_bits
        rng = random.Random(seed)
        self.requests = []
        for ones in _binomial_quantiles(high, slices):
            start = sum(1 << b for b in rng.sample(range(high), ones)) << slice_bits
            self.requests.append((start, start + (1 << slice_bits)))
        self.candidates_per_pass = len(self.ks) * slices << slice_bits
        self._verified: dict[tuple[int, int], tuple] = {}

    def tag(self, request) -> str:
        return "slice"

    def run(self, request):
        return tuple(
            tuple(m.rows for m in oracle.enumerate_k_idempotent(self.n, k, allow_order_5=True, index_range=request))
            for k in self.ks
        )

    def check(self, request, members) -> str | None:
        if request in self._verified:
            return None if self._verified[request] == members else f"slice {request} changed between passes"
        self._verified[request] = members
        return self._check_structural(request, members)

    def _check_structural(self, request, members) -> str | None:
        """The members must be the structural route's accept set, and each must rebuild."""
        start, stop = request
        mask = (1 << self.n) - 1
        for k, found in zip(self.ks, members):
            accepted = []
            for index in range(start, stop):
                matrix = Matrix01(self.n, tuple((index >> (i * self.n)) & mask for i in range(self.n)))
                d = decompose(matrix, k)
                if isinstance(d, CanonicalDecomposition):
                    if d.original_matrix() != matrix:
                        return f"index {index} does not rebuild from its decomposition at k={k}"
                    accepted.append(matrix.rows)
            if tuple(accepted) != found:
                return f"slice {request} at k={k}: power route found {len(found)}, structural route {len(accepted)}"
        return None


# --- analyze_large ---------------------------------------------------------


def render(n: int, rows) -> str:
    """Matrix text format, built here so that round trips are checked independently."""
    return "\n".join([str(n), *(format(row, f"0{n}b")[::-1] for row in rows)]) + "\n"


def sat_power_equals(rows: list[int], k: int) -> bool:
    """Reference test of A^k = A: k - 1 plain products, counts capped at 2."""
    n = len(rows)
    ge1, ge2 = list(rows), [0] * n
    for _ in range(k - 1):
        new1, new2 = [], []
        for i in range(n):
            acc1 = acc2 = 0
            for t in range(n):
                if (ge1[i] >> t) & 1:
                    acc2 |= (acc1 & rows[t]) | (rows[t] if (ge2[i] >> t) & 1 else 0)
                    acc1 |= rows[t]
            new1.append(acc1)
            new2.append(acc2)
        ge1, ge2 = new1, new2
    return ge1 == list(rows) and not any(ge2)


@dataclass
class Member:
    """A seeded dense k-idempotent matrix with its block data.

    Canonical layout: r sources, then cycles, then s sinks. Each source
    row of X is non-empty, so every source really is a source. Only a few
    cycle vertices carry a non-empty Y row, and those rows partition the
    sinks, so the corner X P^T Y is 0-1 for any X.
    """

    rows: list[int]
    r: int
    s: int
    cycle_lengths: list[int]
    sources: list[int]
    sinks: list[int]


def make_member(rng: random.Random, n: int, k: int) -> Member:
    r = s = n // 4
    m = n - r - s
    divisors = [d for d in range(1, 17) if (k - 1) % d == 0]
    lengths: list[int] = []
    while sum(lengths) < m:
        lengths.append(rng.choice([d for d in divisors if d <= m - sum(lengths)]))
    succ, pred = [0] * m, [0] * m
    offset = 0
    for length in lengths:
        for t in range(length):
            succ[offset + t] = offset + (t + 1) % length
            pred[offset + (t + 1) % length] = offset + t
        offset += length
    carriers = rng.sample(range(m), max(1, s // 8))
    groups = [0] * len(carriers)
    for t in range(s):
        groups[rng.randrange(len(groups))] |= 1 << t
    y = [0] * m
    for j, group in zip(carriers, groups):
        y[pred[j]] = group
    canonical = []
    for _ in range(r):
        x = rng.getrandbits(m) or 1
        corner = 0
        for j, group in zip(carriers, groups):
            if (x >> j) & 1:
                corner |= group
        canonical.append((x << r) | (corner << (r + m)))
    for p in range(m):
        canonical.append((1 << (r + succ[p])) | (y[p] << (r + m)))
    canonical.extend([0] * s)
    label = list(range(n))
    rng.shuffle(label)
    rows = [0] * n
    for i, row in enumerate(canonical):
        out = 0
        while row:
            low = row & -row
            row ^= low
            out |= 1 << label[low.bit_length() - 1]
        rows[label[i]] = out
    return Member(rows, r, s, lengths, label[:r], label[r + m :])


@dataclass
class CliRequest:
    """One CLI-shaped request: a few subcommands on one input file."""

    tag: str
    kind: str  # member, miss, malformed, extremal
    path: str = ""
    k: int = 0
    text: str = ""
    expected: dict = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)  # malformed and extremal: the one call


class AnalyzeLarge:
    """CLI-shaped requests on dense members of order 100 and 400.

    A member request runs check, decompose, compose (fed the decompose
    output) and index through in-process ``cli.main``; a near-miss, one
    corner bit flipped, runs check, decompose and index. ``MIX`` maps an
    order to (member count, member k, near-miss k values). A few
    malformed files and one ``extremal --n 10 --k 7`` request ride along.
    The pass is kept near a second so that each request is tried some
    17 times in a 25-s run. Order 1000 is left out: on a host whose speed
    drifts, the fastest of a run's few tries of one 0.8-s request varied
    by 10% between runs of the same seed.
    """

    PASS_S = 1.5
    MIX = {100: (20, BIG_K, (2, 7, 13, 2)), 400: (3, BIG_K, (7,))}

    def __init__(self, seed: int, root: Path, workdir: Path, *, mix=None):
        mix = mix or self.MIX
        rng = random.Random(seed)
        self.requests: list[CliRequest] = []
        for n, (members, member_k, miss_ks) in mix.items():
            for i in range(members):
                member = make_member(rng, n, member_k)
                path = workdir / f"n{n}_{i}.txt"
                text = render(n, member.rows)
                path.write_text(text)
                expected = {"r": member.r, "s": member.s, "cycle_lengths": sorted(member.cycle_lengths),
                            "index": lcm(*member.cycle_lengths) + 1}
                self.requests.append(CliRequest(f"n{n}", "member", str(path), member_k, text, expected))
            for i, k in enumerate(miss_ks):
                member = make_member(rng, n, k)
                u, t = rng.choice(member.sources), rng.choice(member.sinks)
                member.rows[u] ^= 1 << t
                path = workdir / f"n{n}_miss{i}.txt"
                path.write_text(render(n, member.rows))
                self.requests.append(CliRequest(f"n{n}.miss", "miss", str(path), k))
        small = min(mix)
        base = render(small, make_member(rng, small, BIG_K).rows)
        row_start = base.index("\n") + 1
        broken = {
            "truncated": base[: len(base) // 2].encode(),
            "bad_char": (base[:row_start] + "2" + base[row_start + 1 :]).encode(),
            "non_ascii": (base[:row_start] + "é" + base[row_start + 1 :]).encode("utf-8"),
        }
        commands = (["check", "--k", "2"], ["decompose", "--k", "2"], ["index"])
        for (name, data), command in zip(broken.items(), commands):
            path = workdir / f"malformed_{name}.txt"
            path.write_bytes(data)
            self.requests.append(CliRequest(f"malformed.{name}", "malformed", str(path), argv=[*command, str(path)]))
        self.requests.append(
            CliRequest("extremal", "extremal", expected={"n": 10, "k": 7}, argv=["extremal", "--n", "10", "--k", "7"])
        )
        rng.shuffle(self.requests)
        self.candidates_per_pass = len(self.requests)
        self._extremal_output: str | None = None

    def tag(self, request: CliRequest) -> str:
        return request.tag

    def run(self, request: CliRequest):
        k = ["--k", str(request.k)]
        if request.kind == "member":
            check = _call(["check", *k, request.path])
            dec = _call(["decompose", *k, request.path])
            comp = _call(["compose", "-"], stdin=dec[1])
            return check, dec, comp, _call(["index", request.path])
        if request.kind == "miss":
            return _call(["check", *k, request.path]), _call(["decompose", *k, request.path]), _call(["index", request.path])
        return (_call(request.argv),)

    def check(self, request: CliRequest, responses) -> str | None:
        if request.kind == "member":
            return _check_member(request, *responses)
        if request.kind == "miss":
            (c_rc, c_out, _), (d_rc, d_out, _), (i_rc, i_out, _) = responses
            if c_rc != 1 or not c_out.startswith("not k-idempotent: witness ("):
                return f"{request.path}: check gave {c_rc} {c_out[:40]!r}"
            if d_rc != 1 or not d_out.startswith("error="):
                return f"{request.path}: decompose gave {d_rc} {d_out[:40]!r}"
            if i_rc != 1 or i_out != "none\n":
                return f"{request.path}: index gave {i_rc} {i_out[:40]!r}"
            return None
        if request.kind == "malformed":
            ((rc, out, err),) = responses
            if rc != 2 or out or "Traceback" in err:
                return f"{request.path}: expected exit 2 and no output, got {rc}"
            return None
        ((rc, out, _),) = responses
        if rc != 0:
            return f"extremal exited {rc}"
        if self._extremal_output is None:
            problem = _check_extremal(out, request.expected["n"], request.expected["k"])
            if problem:
                return problem
            self._extremal_output = out
        return None if out == self._extremal_output else "extremal output changed between passes"


def _call(argv: list[str], stdin: str | None = None) -> tuple[int, str, str]:
    """Run one subcommand in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _check_member(request: CliRequest, check, dec, comp, index) -> str | None:
    e = request.expected
    if check[:2] != (0, "k-idempotent\n"):
        return f"{request.path}: check gave {check[0]} {check[1][:40]!r}"
    if dec[0] != 0:
        return f"{request.path}: decompose exited {dec[0]}"
    fields = dict(line.split("=", 1) for line in dec[1].splitlines()[:5])
    got = (int(fields["r"]), int(fields["s"]), [int(v) for v in fields["cycle_lengths"].split(",") if v])
    if got != (e["r"], e["s"], e["cycle_lengths"]):
        return f"{request.path}: decompose gave r, s, cycles {got[:2]}, expected {e['r'], e['s']}"
    if comp[0] != 0 or comp[1] != request.text:
        return f"{request.path}: compose round trip is not byte-identical (exit {comp[0]})"
    if index[:2] != (0, f"{e['index']}\n"):
        return f"{request.path}: index gave {index[1].strip()!r}, expected {e['index']}"
    return None


def _gamma(n: int) -> int:
    return (n + 1) ** 2 // 4 if n % 2 else (n * n + 2 * n) // 4


def _check_extremal(out: str, n: int, k: int) -> str | None:
    """Every listed family must be a distinct k-idempotent matrix with gamma(n) ones."""
    if not out.endswith("\n"):
        return "extremal output does not end with a newline"
    seen = set()
    blocks = out[:-1].split("\n\n")
    for number, block in enumerate(blocks, 1):
        head, order, *body = block.split("\n")
        if not head.startswith("variant=") or order != str(n) or len(body) != n:
            return f"extremal family {number} is malformed"
        rows = [int(line[::-1], 2) for line in body]
        if sum(row.bit_count() for row in rows) != _gamma(n):
            return f"extremal family {number} does not have gamma({n}) ones"
        if not sat_power_equals(rows, k):
            return f"extremal family {number} is not {k}-idempotent"
        seen.add(tuple(rows))
    if len(seen) != len(blocks):
        return "extremal families repeat a matrix"
    return None


WORKLOADS = {"census_n3": Census, "sweep_n5": SweepN5, "analyze_large": AnalyzeLarge}
