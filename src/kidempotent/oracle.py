"""Exhaustive brute-force verification at desk scale.

Every 0-1 matrix of a small order is enumerated, and the saturating
power route decides A^k = A for each. The structural route sees the
members only: each must pass the canonical block certification and be
rebuilt from its blocks, and the member count must equal
:func:`structural_count`, a count that uses neither route. The census
records that verdict, the density maximum with all matrices attaining
it, and whether a nonzero strictly upper triangular matrix is a member,
read off the same member walk.
Orders 0 to 5 are accepted. Enumeration is indexed so that bit j of the
index is entry (j div n, j mod n); any index sub-range can be swept on
its own and the merged result equals the serial stream.

The power route is bit-sliced: one saturating power decides a block of
up to 2**16 consecutive indices, one per bit lane
(:func:`_sat_member_lanes`), and a depth-first search skips every block
whose fixed index bits already force A^k != A.
That search, :func:`_member_blocks`, yields the member indices in
ascending order, and both the public stream and the census read them
from it, once per exponent. At every order the census runs the
structural route on the members only: each is certified and relabeled,
and its canonical rows are compared with the rows composed from the X
and Y blocks read off them, once per distinct canonical form for all
the exponents of one :func:`censuses` call. Every member then lies in the
canonical set, and the member count must equal :func:`structural_count`,
the number of matrices of the canonical form, so the two sets are equal
without visiting a non-member. The census therefore never asks the
structural route about a non-member; the test suite does, for every
matrix of order 0 to 4 at every golden exponent. The density shape is
decided once per distinct argmax form, on its blocks. No matrix object
is built except for the reported argmax and mismatches, and no
permutation or decomposition object at all. The README's performance
notes give the timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from typing import Iterator

from .matrix01 import Matrix01, _lane_flags, _require_int, _sat_power_rows, to_text
from .structure import (
    _blocks,
    _build_rows,
    _canonical_form,
    _fits_maximum_form,
    _require_k,
    gamma,
)

__all__ = [
    "CensusReport",
    "census",
    "censuses",
    "enumerate_k_idempotent",
    "matrix_from_index",
    "serialize_census",
    "structural_count",
]

ORDER_LIMIT = 5

# Leaves of the pruned search hold up to 2**_LANE_BITS lanes, and nodes
# narrower than a leaf are not tested. Full order-5 sweeps took 0.050 s at
# k = 2 and 0.27 s at k = 7 with 2**16 lanes, 0.047 s and 0.31 s with
# 2**14, and 0.055 s and 0.33 s with 2**12 (fastest of 12, interleaved,
# on a 2-core Xeon VM): narrower leaves prune more blocks but make more
# calls, with no net gain. Before the search, 2**16 beat 2**12 and
# 2**20, whose peak memory was 40 MB against 17 MB.
_LANE_BITS = 16


def matrix_from_index(n: int, index: int) -> Matrix01:
    """Decode an enumeration index; bit j of the index is entry (j div n, j mod n)."""
    _require_int(n, "order must be >= 0", 0)
    _require_int(index, "index out of range", 0, (1 << (n * n)) - 1)
    return Matrix01(n, _index_rows(n, index))


def _index_rows(n: int, index: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple([(index >> (i * n)) & mask for i in range(n)])


def _member_blocks(n: int, k: int, start: int, stop: int) -> Iterator[int]:
    """The k-idempotent indices in [start, stop), ascending, by a depth-first pruned search.

    The search starts at the smallest aligned node that holds the range.
    A node of 2**d indices has its index bits at or above d decided; its
    partial matrix B keeps those bits and sets every undecided entry to
    0. Each matrix A in the node satisfies A >= B entrywise, and
    saturating powers are entrywise monotone, so A^k >= B^k. Hence when
    B^k has an entry of 2 or more, or a 1 where B has a decided 0, no A
    in the node satisfies A^k = A, and the node is pruned unsplit: it
    yields nothing. The test is one :func:`_excluded` call, so it uses
    the power route only and the structural route stays an independent
    check. A node that survives is split, down to leaves of up to
    2**_LANE_BITS lanes (narrower when the range is shorter), each
    decided by one :func:`_sat_member_lanes` power. The search makes no
    other call, so wrapping these counts tested nodes, pruned or not, and leaves.

    Nodes of fewer than 2**_LANE_BITS indices are not tested: a short
    range is one lane power whatever its bits, which on a range with no
    member mostly ends after one row, chained from A alone. Tested, a
    2**10-index order-5 range cost 6-34 microseconds when pruned and that
    plus a lane power when not, so seeded passes of 32 such ranges varied
    2.2-fold in cost from seed to seed.
    """
    if start >= stop:
        return
    width = min(_LANE_BITS, (stop - start - 1).bit_length())
    d = (start ^ (stop - 1)).bit_length()
    nodes = [(start >> d << d, d)]
    while nodes:
        base, d = nodes.pop()
        size = 1 << d
        if base >= stop or base + size <= start or (d >= _LANE_BITS and _excluded(n, k, base, d)):
            continue
        if d > width:
            nodes += [(base + size // 2, d - 1), (base, d - 1)]
            continue
        members = _sat_member_lanes(n, k, base, d)
        members &= (1 << min(stop - base, size)) - (1 << max(start - base, 0))
        # flags[x] is "1" when base + x is a member in the range
        flags = format(members, f"0{size}b")[::-1]
        x = flags.find("1")
        while x >= 0:
            yield base + x
            x = flags.find("1", x + 1)


def _excluded(n: int, k: int, base: int, d: int) -> bool:
    """True when B^k rules out every index in [base, base + 2**d); see _member_blocks."""
    p1, p2 = _sat_power_rows(_index_rows(n, base), k)
    reached = sum(row << (i * n) for i, row in enumerate(p1))
    return any(p2) or (reached & ~base) >> d != 0


@lru_cache(maxsize=None)
def _lane_patterns(width: int) -> tuple[int, ...]:
    """Lane x of pattern b is bit b of x, for 2**width lanes and b < width.

    Each pattern is one period (2**b zeros, then 2**b ones) doubled until
    it spans every lane; that is far cheaper than dividing the all-ones
    word by 2**(2**(b+1)) - 1.
    """
    lanes = 1 << width
    patterns = []
    for b in range(width):
        run = 1 << b
        pattern = ((1 << run) - 1) << run
        span = run << 1
        while span < lanes:
            pattern |= pattern << span
            span <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def _sat_member_lanes(n: int, k: int, base: int, width: int) -> int:
    """Decide A^k = A for the 2**width matrices with indices base + x at once.

    Bit e of an index is entry (e div n, e mod n) and ``base`` is a
    multiple of 2**width. Entry e becomes one int whose lane x holds that
    entry of matrix base + x: a fixed lane pattern when e < width, and
    all-ones or zero by bit e of ``base`` otherwise. Bit x of the result
    is set when matrix base + x is k-idempotent. The rows from entry
    ``width`` on are fixed, and :func:`_lane_flags` may chain them, where
    most often every lane fails at once: at k = 7, 64 seeded order-5
    blocks of 2**10 lanes multiply 1,280 rows powered whole, 864 with A^3
    built first and 684 chained.

    A leaf of 2**_LANE_BITS indices is the one block the node test of
    :func:`_member_blocks` vets: its fixed rows passed the test, so a chain
    seldom ends it, and it chains none. Chained, full order-5 sweeps took
    0.27 s instead of 0.24 s at k = 7 and 0.38 s instead of 0.30 s at
    k = 13.
    """
    full = (1 << (1 << width)) - 1
    patterns = _lane_patterns(width)
    a = [patterns[e] if e < width else full if (base >> e) & 1 else 0 for e in range(n * n)]
    return _lane_flags(a, k, n, full, n * n if width == _LANE_BITS else width)


def enumerate_k_idempotent(
    n: int,
    k: int,
    *,
    allow_order_5: bool = False,
    index_range: tuple[int, int] | None = None,
) -> Iterator[Matrix01]:
    """Yield every k-idempotent matrix of order n in ascending index order.

    ``index_range`` restricts the sweep to indices in [start, stop) so
    that disjoint ranges can be processed independently and merged in
    range order without changing the stream.

    Each member index of :func:`_member_blocks` is decoded into its rows.

    ``allow_order_5`` is ignored: order 5 needs no opt-in. It stays while
    its one caller, the order-5 sweep of ``perfbench/workloads.py``, passes it.
    """
    _require_k(k)
    _require_int(n, f"order must be between 0 and {ORDER_LIMIT}", 0, ORDER_LIMIT)
    try:
        start, stop = index_range if index_range is not None else (0, 1 << (n * n))
    except (TypeError, ValueError):  # not a pair: refused by the rule below
        start = None
    _require_int(start, "bad index range", 0, 1 << (n * n))
    _require_int(stop, "bad index range", start, 1 << (n * n))
    yield from map(Matrix01, repeat(n), map(_index_rows, repeat(n), _member_blocks(n, k, start, stop)))


def structural_count(n: int, k: int) -> int:
    """Number of order-n matrices of the canonical form, counted without enumerating.

    The sum over r + m + s = n of n!/(r! m! s!) * pi(m) * N(r, m, s).
    The multinomial places the r sources, m core points and s sinks;
    pi(m) counts the permutations P of the core whose cycle lengths all
    divide k - 1; and N(r, m, s) counts the blocks X (r x m, no zero row,
    since a source has an out-arc) and Y (m x s) with X P^T Y 0-1. P
    drops out, as X -> X P^T is a bijection that keeps "no zero row".
    Column j of Y is a set T of core points with X T 0-1, so N(r, m, s)
    is the sum over X of c(X)^s, where c(X) counts the sets T that meet
    every X row in at most one point. The matrix fixes its sources (no
    in-arc, some out-arc), its core and its blocks, so no matrix is
    counted twice.

    Uses neither the power route nor the structural analysis, so it is a
    third, independent route to the member count.
    """
    _require_k(k)
    _require_int(n, "order must be >= 0", 0)
    lengths = [d for d in range(1, n + 1) if (k - 1) % d == 0]
    perms = [1]
    for m in range(1, n + 1):
        perms.append(sum(comb(m - 1, d - 1) * factorial(d - 1) * perms[m - d] for d in lengths if d <= m))
    total = 0
    for m in range(n + 1):
        # bit t of meets_once[S - 1] is set when the set T = t meets the X row S at most once
        meets_once = [sum(1 << t for t in range(1 << m) if (t & row).bit_count() <= 1) for row in range(1, 1 << m)]
        # the sets T allowed by every row of X -> number of X with r rows
        allowed = {(1 << (1 << m)) - 1: 1}
        for r in range(n - m + 1):
            s = n - m - r
            blocks = sum(count * mask.bit_count() ** s for mask, count in allowed.items())
            total += factorial(n) // (factorial(r) * factorial(m) * factorial(s)) * perms[m] * blocks
            grown: dict[int, int] = {}
            for mask, count in allowed.items():
                for once in meets_once:
                    grown[mask & once] = grown.get(mask & once, 0) + count
            allowed = grown
    return total


@dataclass(frozen=True)
class CensusReport:
    """Aggregate verdicts of one exhaustive census.

    ``mismatches`` holds every member that the structural route rejected
    or whose decomposition failed to reconstruct it; it is empty on
    success. The structural route runs on the members only, so
    ``characterization_ok`` also requires the member count to equal
    :func:`structural_count`, and it can be false with no mismatch.
    """

    n: int
    k: int
    total_k_idempotent: int
    gamma_value: int
    max_nnz: int
    argmax_count: int
    max_density_ok: bool
    characterization_ok: bool
    upper_triangular_ok: bool
    mismatches: tuple[Matrix01, ...]
    argmax: tuple[Matrix01, ...]


def _sweep(n: int, k: int, built: dict) -> CensusReport:
    """The census of order n >= 1 at k, from one pass over the member stream of order n.

    The power route decides every index, and one walk certifies each member
    of :func:`_member_blocks` by :func:`_canonical_form` from its index; no
    member list is kept. Whether :func:`_build_rows` rebuilds a member's
    canonical rows from the blocks :func:`_blocks` reads off them depends on
    its key alone, so ``built`` keeps that one bool per key: as the relabel
    is a bijection, it compares the rebuilt matrix with the member. A
    rejected member has the key None, whose verdict in ``built`` is False,
    so a member that is rejected or not rebuilt is a mismatch. Every
    other member lies in the canonical set, so a member count equal to
    :func:`structural_count`, the size of that set, shows the two sets equal
    without visiting a non-member. An index's bits are its matrix's entries,
    so its count of ones is its bit count. The density shape is decided once
    per distinct argmax key, on the blocks of its form. A nonzero member whose
    index has no bit on or below the diagonal is strictly upper triangular,
    and breaks the triangular lemma. Matrices are built only for the final
    argmax and the mismatches, these in ascending index order.
    """
    # the index bits of the entries on or below the diagonal
    lower = sum(((2 << i) - 1) << (i * n) for i in range(n))
    upper_triangular_ok = True
    total = 0
    best = -1
    argmax: list[tuple[tuple[int, ...], tuple | None]] = []
    bad = []
    for x in _member_blocks(n, k, 0, 1 << (n * n)):
        rows = _index_rows(n, x)
        form = _canonical_form(rows, k)
        total += 1
        if x and not x & lower:
            upper_triangular_ok = False
        key = None if form is None else form[0]
        if key not in built:
            built[key] = _build_rows(*_blocks(*key)) == key[2]
        if not built[key]:
            bad.append(rows)
        count = x.bit_count()
        if count > best:
            best = count
            argmax = [(rows, key)]
        elif count == best:
            argmax.append((rows, key))
    gamma_value = gamma(n)
    return CensusReport(
        n=n,
        k=k,
        total_k_idempotent=total,
        gamma_value=gamma_value,
        max_nnz=best,
        argmax_count=len(argmax),
        max_density_ok=best == gamma_value
        and all(
            key is not None and _fits_maximum_form(*_blocks(*key)) for key in dict.fromkeys(key for _, key in argmax)
        ),
        characterization_ok=not bad and total == structural_count(n, k),
        upper_triangular_ok=upper_triangular_ok,
        # Lists first: tuple() of a generator grows the tuple by resizing,
        # which raised the peak RSS of repeated order-3 censuses by 0.6 MB.
        mismatches=tuple([Matrix01(n, rows) for rows in bad]),
        argmax=tuple([Matrix01(n, rows) for rows, _ in argmax]),
    )


def censuses(n: int, ks) -> list[CensusReport]:
    """Full census of order n under each exponent of ``ks``, one report per k in the order given.

    A report covers the member count, the two-route characterization
    check with reconstruction, closed by :func:`structural_count`, the
    density maximum against gamma(n) with the shape of every argmax, and
    the lemma that no nonzero strictly upper triangular matrix is a
    member. It equals the report of the k alone, bit for bit.

    Every argument is checked before any work. Each k is one
    :func:`_sweep` over its members; the rebuild verdict of each distinct
    canonical form does not depend on k, so the sweeps share it.
    """
    ks = tuple(ks)
    _require_int(n, f"census order must be between 1 and {ORDER_LIMIT}", 1, ORDER_LIMIT)
    _require_int(len(ks), "census requires at least one exponent", 1)
    for k in ks:
        _require_k(k)
    built: dict = {None: False}  # the rebuild verdict of each distinct canonical form; None for a rejected member
    return [_sweep(n, k, built) for k in ks]


def census(n: int, k: int) -> CensusReport:
    """Full census of order n under exponent k: the one-exponent case of :func:`censuses`."""
    return censuses(n, (k,))[0]


def serialize_census(report: CensusReport) -> str:
    """Line-oriented key=value form; witness matrices follow, blank-line separated."""
    lines = [
        f"n={report.n}",
        f"k={report.k}",
        f"total_k_idempotent={report.total_k_idempotent}",
        f"gamma={report.gamma_value}",
        f"max_nnz={report.max_nnz}",
        f"argmax_count={report.argmax_count}",
        f"max_density_ok={str(report.max_density_ok).lower()}",
        f"characterization_ok={str(report.characterization_ok).lower()}",
        f"upper_triangular_ok={str(report.upper_triangular_ok).lower()}",
        f"mismatches={len(report.mismatches)}",
    ]
    text = "\n".join(lines) + "\n"
    for witness in report.mismatches:
        text += "\n" + to_text(witness)
    return text
