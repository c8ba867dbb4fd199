"""Shared test helpers: census memoization, every matrix of an order, the
one-bit-at-a-time relabel, random decomposition data, the strongly
connected components of a digraph, from the definition, seeded text
corruptions and the power-route certificate of an idempotency index."""

import random
from pathlib import Path

import pytest

from kidempotent.matrix01 import Matrix01, Permutation
from kidempotent.oracle import censuses
from kidempotent.structure import CanonicalDecomposition, power_failure

_census_memo: dict[tuple[int, int], object] = {}

# The golden exponents of each order, in file order; orders without a golden line use k = 2..7.
ORDER_KS: dict[int, list[int]] = {}
for _name in ("k_idempotent_counts.txt", "k_idempotent_counts_n5.txt"):
    for _line in (Path(__file__).parent / "golden" / _name).read_text().splitlines():
        _n, _k, _ = map(int, _line.split())
        ORDER_KS.setdefault(_n, []).append(_k)


@pytest.fixture(scope="session")
def get_census():
    """Session-wide census memo; censuses are pure so sharing is safe.

    A miss on one of an order's exponents fetches them all in one
    ``censuses`` call, whose sweeps share the rows rebuilt from each
    distinct block data.
    """

    def fetch(n, k):
        if (n, k) not in _census_memo:
            ks = ORDER_KS.get(n, list(range(2, 8)))
            ks = ks if k in ks else [k]
            _census_memo.update(zip([(n, x) for x in ks], censuses(n, ks)))
        return _census_memo[(n, k)]

    return fetch


def all_matrices(n):
    """Every matrix of order n, in enumeration index order."""
    mask = (1 << n) - 1
    for index in range(1 << (n * n)):
        yield Matrix01(n, tuple((index >> (i * n)) & mask for i in range(n)))


def relabel_reference(bits, position):
    """Bit v of ``bits`` moved to bit position[v], one bit at a time, read off its binary numeral."""
    return sum(1 << position[v] for v, bit in enumerate(f"{bits:b}"[::-1]) if bit == "1")


def random_decomposition(rng: random.Random, n: int, k: int) -> CanonicalDecomposition:
    """A random decomposition whose corner product is guaranteed 0-1.

    Cycle lengths are drawn from the divisors of k-1. The X block is
    arbitrary; validity is ensured by giving each sink column of Y at
    most one 1, which caps every corner entry at 1.
    """
    divisors = [d for d in range(1, n + 1) if (k - 1) % d == 0]
    r = rng.randint(0, n)
    lengths = []
    m = 0
    while True:
        room = n - r - m
        options = [d for d in divisors if d <= room]
        if not options or rng.random() < 0.3:
            break
        pick = rng.choice(options)
        lengths.append(pick)
        m += pick
    s = n - r - m
    lengths.sort()
    x_rows = tuple(rng.getrandbits(m) if m else 0 for _ in range(r))
    y_rows = [0] * m
    for col in range(s):
        if m and rng.random() < 0.8:
            y_rows[rng.randrange(m)] |= 1 << col
    order = list(range(n))
    rng.shuffle(order)
    # order[pos] is the original vertex at canonical position pos
    to_canonical = [0] * n
    for pos, v in enumerate(order):
        to_canonical[v] = pos
    return CanonicalDecomposition(
        n=n,
        k=k,
        source_count=r,
        cycle_lengths=tuple(lengths),
        sink_count=s,
        source_to_cycle=x_rows,
        cycle_to_sink=tuple(y_rows),
        sigma=Permutation(tuple(to_canonical)),
    )


def block_power(d: CanonicalDecomposition, m: int) -> list[list[int]]:
    """Exact integer m-th power of the canonical matrix, from the block formula.

    Blocks: [[0, X P^(m-1), X P^(m-2) Y], [0, P^m, P^(m-1) Y], [0, 0, 0]].
    Built from the cycle permutation directly, independent of matrix
    multiplication.
    """
    r = d.source_count
    s = d.sink_count
    size = d.cycle_total
    succ = [0] * size
    offset = 0
    for length in d.cycle_lengths:
        for t in range(length):
            succ[offset + t] = offset + (t + 1) % length
        offset += length

    def perm_power(t: int) -> list[int]:
        out = list(range(size))
        for _ in range(t):
            out = [succ[v] for v in out]
        return out

    def x_entry(i: int, j: int) -> int:
        return (d.source_to_cycle[i] >> j) & 1

    def y_entry(i: int, j: int) -> int:
        return (d.cycle_to_sink[i] >> j) & 1

    n = r + size + s
    out = [[0] * n for _ in range(n)]
    p_m1 = perm_power(m - 1)
    p_m2 = perm_power(m - 2)
    p_m = perm_power(m)
    for i in range(r):
        for j in range(size):
            # (X P^(m-1))(i, j) = X(i, u) where P^(m-1) maps u to j
            out[i][r + j] = sum(x_entry(i, u) for u in range(size) if p_m1[u] == j)
        for j in range(s):
            out[i][r + size + j] = sum(
                x_entry(i, u) * y_entry(p_m2[u], j) for u in range(size)
            )
    for i in range(size):
        out[r + i][r + p_m[i]] = 1
        for j in range(s):
            out[r + i][r + size + j] = y_entry(p_m1[i], j)
    return out


def reach(rows):
    """Bit j of row i is set when a walk of length >= 1 leads from i to j.

    The transitive closure of the digraph whose arcs are the set bits of
    ``rows``, by Warshall's method on bitsets: pass t lets t be an inner
    vertex of a walk.
    """
    out = list(rows)
    for t in range(len(out)):
        for i, row in enumerate(out):
            if (row >> t) & 1:
                out[i] = row | out[t]
    return out


def strong_components(rows):
    """Strongly connected components of the digraph of ``rows``, with their kinds.

    Two vertices share a component when each reaches the other. A
    component is a "cycle" when every vertex in it has exactly one arc
    inside it; a single vertex without a self-loop is "acyclic" and any
    other component "non-cycle". Returns (vertices, kind) pairs, each
    vertex tuple ascending, in reverse-topological order: a component
    that reaches more vertices comes later, so an arc between components
    points to an earlier one; ties go to the smaller first vertex.
    """
    n = len(rows)
    closure = reach(rows)
    comps = []
    seen = 0
    for v in range(n):
        if (seen >> v) & 1:
            continue
        mask = 1 << v
        for w in range(n):
            if (closure[v] >> w) & 1 and (closure[w] >> v) & 1:
                mask |= 1 << w
        seen |= mask
        vertices = tuple(w for w in range(n) if (mask >> w) & 1)
        if all((rows[w] & mask).bit_count() == 1 for w in vertices):
            kind = "cycle"
        else:
            kind = "acyclic" if len(vertices) == 1 else "non-cycle"
        comps.append(((closure[v] | mask).bit_count(), vertices, kind))
    return [(vertices, kind) for _, vertices, kind in sorted(comps)]


# Characters a corrupted text may gain: ones int() accepts or skips, the line structure's own
# characters, a non-ASCII letter, a lone surrogate (a POSIX stdin's undecodable byte, which
# str.encode refuses) and the decomposition's keys.
CORRUPTION_CHARS = "2 _+b\r\u00e9\udce901\nX=-,"


def corrupted_texts(rng: random.Random, text: str, count: int) -> list[str]:
    """``count`` seeded single-character edits of ``text``: substitutions, insertions and deletions."""
    out = []
    for _ in range(count):
        pos = rng.randrange(len(text) + 1)
        edit, char = rng.choice(("put", "insert", "cut")), rng.choice(CORRUPTION_CHARS)
        if edit == "insert":
            out.append(text[:pos] + char + text[pos:])
        elif edit == "put":
            out.append(text[:pos] + char + text[pos + 1 :])
        else:
            out.append(text[:pos] + text[pos + 1 :])
    return out


def outcome(parse, text: str):
    """("ok", value) of a parse, or the type and message of what it raised."""
    try:
        return "ok", parse(text)
    except Exception as exc:  # compared whole: any exception type must match the reference's
        return type(exc), str(exc)


def prime_factors(value: int) -> list[int]:
    """The distinct primes dividing ``value`` >= 1, by trial division."""
    primes, q = [], 2
    while q * q <= value:
        if value % q == 0:
            primes.append(q)
            while value % q == 0:
                value //= q
        q += 1
    return primes + ([value] if value > 1 else [])


def index_certificate_failure(a, p: int):
    """None when the power route alone certifies p as the least k >= 2 with A^k = A; else the failed test.

    Lemma (elementary, not from the paper): when A^p = A with p >= 2, the
    powers of A are periodic from exponent 1, and with pi the least period,
    A^m = A exactly when pi divides m - 1. So p is the minimum exactly when
    A^p = A and A^(1 + (p - 1)/q) differs from A for every prime q dividing
    p - 1, the order test behind primitive-root certificates (V. Pratt,
    SIAM J. Comput. 4(3), 1975). Only saturating powers are taken, through
    ``power_failure``; the structural route is never asked. The failure is
    "power" when A^p differs from A, else the prime q whose test failed.

    A "none" answer of ``idempotency_index`` (no k works) is not certified
    here: that would need a bound on the period of the powers.
    """
    if power_failure(a, p) is not None:
        return "power"
    return next((q for q in prime_factors(p - 1) if power_failure(a, 1 + (p - 1) // q) is None), None)
