"""Maximum-density k-idempotent matrices: the families that attain gamma(n).

The density theorem (gamma, the allowed boundary counts and the test
for variants A and B) is stated in :mod:`kidempotent.structure`, where
the census reads it; this module constructs and recognizes the densest
matrices and enumerates every family that attains the bound. The
enumeration builds only allowed (variant, boundary count, cycle
multiset) groups, composes each candidate once and verifies all of them
in one bit-sliced power, one lane per matrix; :func:`construct_extremal`
checks the shape of one given family and verifies it directly, on the
row route. The package and the command line load this module on first
use.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import product
from typing import Sequence

from .matrix01 import Matrix01, _lanes_k_idempotent, _require_int, _require_ints, nnz
from .structure import (
    _build_rows,
    _decomposition_lines,
    _require_k,
    allowed_boundary_counts,
    gamma,
    is_k_idempotent,
)

__all__ = [
    "ExtremalParams",
    "InvalidParams",
    "ValidationFailed",
    "construct_extremal",
    "extremal_families",
    "family_line",
    "is_extremal",
]


class InvalidParams(ValueError):
    """Extremal parameters outside the allowed shapes."""


class ValidationFailed(ValueError):
    """A composed candidate that fails the direct density or power check."""


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of one maximum-density family.

    For variant A the pattern assigns each sink column of Y the single
    cycle row holding its 1; for variant B it assigns each source row of
    X the single cycle column holding its 1. Cycle lengths, in canonical
    (ascending) order, and pattern entries are of type int.
    """

    variant: str
    source_count: int
    sink_count: int
    cycle_lengths: tuple[int, ...]
    pattern: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycle_lengths", tuple(self.cycle_lengths))
        object.__setattr__(self, "pattern", tuple(self.pattern))
        if self.variant not in ("A", "B"):
            raise ValueError("variant must be 'A' or 'B'")
        _require_int(self.source_count, "block sizes must be non-negative", 0)
        _require_int(self.sink_count, "block sizes must be non-negative", 0)
        _require_ints((*self.cycle_lengths, *self.pattern), "cycle lengths and pattern entries must be of type int")


def _family_blocks(variant: str, r: int, s: int, cycle_lengths: tuple[int, ...], pattern: Sequence[int]) -> tuple:
    """The block data (r, cycle_lengths, s, X, Y) of the family with this pattern."""
    m = sum(cycle_lengths)
    if variant == "A":
        x_rows = [(1 << m) - 1] * r
        y_rows = [0] * m
        for col, row_idx in enumerate(pattern):
            y_rows[row_idx] |= 1 << col
    else:
        y_rows = [(1 << s) - 1] * m
        x_rows = [1 << col for col in pattern]
    return r, cycle_lengths, s, x_rows, y_rows


def _family_rows(n: int, k: int, params: ExtremalParams) -> tuple[int, ...]:
    """The family's composed rows, corner checked; raises :class:`InvalidParams` outside the allowed shapes."""
    variant, r, s, cycles, pattern = astuple(params)
    allowed = allowed_boundary_counts(n)
    _require_k(k)
    if r + sum(cycles) + s != n:
        raise InvalidParams("block sizes do not add up to the order")
    fixed = r if variant == "A" else s
    if fixed not in allowed:
        raise InvalidParams(f"count {fixed} not in the allowed set {allowed}")
    for length in cycles:
        if length < 1 or (k - 1) % length:
            raise InvalidParams(f"cycle length {length} does not divide k-1 = {k - 1}")
    if len(pattern) != (s if variant == "A" else r):
        raise InvalidParams("pattern length does not match the one-per-line block")
    if not set(pattern).issubset(range(sum(cycles))):
        raise InvalidParams("pattern index outside the cycle block")
    return _build_rows(*_family_blocks(variant, r, s, cycles, pattern))


def construct_extremal(n: int, k: int, params: ExtremalParams) -> Matrix01:
    """Compose the family's matrix in canonical layout and verify it.

    The parameter algebra is never trusted: the result is re-checked by
    :func:`is_extremal`, a direct k-idempotency test on the row route and
    a direct count of ones against gamma(n). Raises :class:`InvalidParams`
    for parameters outside the allowed shapes. :class:`ValidationFailed`
    guards the parameter algebra only: every allowed family has
    (r+1)(n-r) ones in variant A and (s+1)(n-s) in B, both gamma(n).
    """
    matrix = Matrix01(n, _family_rows(n, k, params))
    if not is_extremal(matrix, k):
        raise ValidationFailed("composed matrix misses the density bound")
    return matrix


def is_extremal(a: Matrix01, k: int) -> bool:
    """Whether the matrix is k-idempotent with gamma(n) ones."""
    _require_k(k)
    if a.n < 1:
        return False
    return is_k_idempotent(a, k) and nnz(a) == gamma(a.n)


def _cycle_multisets(limit: int, k: int) -> list[tuple[int, ...]]:
    """Ascending multisets of cycle lengths dividing k-1, total 1..limit, in listing order: depth
    first, parts added in ascending order, none above the last, each listed before its extensions."""
    parts = [d for d in range(1, limit + 1) if (k - 1) % d == 0]
    out: list[tuple[int, ...]] = []

    def descend(acc: tuple[int, ...], room: int) -> None:
        for p in parts:
            if p > room or (acc and p > acc[0]):
                return
            out.append((p, *acc))
            descend((p, *acc), room - p)

    descend((), limit)
    return out


def _family_matrices(n: int, k: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """The families of :func:`extremal_families`: their :class:`ExtremalParams` fields, in order, and rows.

    Each (variant, boundary count, cycle multiset) group is taken in
    listing order from :func:`_cycle_multisets`: its cycle lengths divide
    k - 1 and its sizes add up to n with an allowed count, so the shape
    checks of :func:`_family_rows` are not repeated here. Each pattern is
    composed once and repeated rows are dropped. One bit-sliced power
    decides A^k = A for all of them, and a candidate that passes is kept
    at gamma(n) ones. No :class:`ExtremalParams` is built here.
    """
    _require_k(k)
    candidates: dict[tuple[int, ...], tuple] = {}
    for variant in ("A", "B"):
        for count in allowed_boundary_counts(n):
            for cycles in _cycle_multisets(n - count, k):
                m = sum(cycles)
                other = n - count - m
                r, s = (count, other) if variant == "A" else (other, count)
                for pattern in product(range(m), repeat=other):
                    rows = _build_rows(*_family_blocks(variant, r, s, cycles, pattern))
                    candidates.setdefault(rows, (variant, r, s, cycles, pattern))
    flags, top = _lanes_k_idempotent(n, k, list(candidates)), gamma(n)
    kept = [(fields, rows) for i, (rows, fields) in enumerate(candidates.items()) if flags >> i & 1]
    return [(fields, rows) for fields, rows in kept if sum(map(int.bit_count, rows)) == top]


def extremal_families(n: int, k: int) -> list[ExtremalParams]:
    """Every parameter family whose composed matrix attains gamma(n).

    Candidates are generated over variants, allowed boundary counts,
    cycle multisets and one-per-line patterns, composed with the checks
    of :func:`construct_extremal`, verified together by one bit-sliced
    power and kept at gamma(n) ones. Families whose composed matrices
    repeat an earlier family's matrix entry-for-entry are dropped, so
    each returned family owns a distinct labeled matrix in canonical
    layout (distinctness up to relabeling is not attempted). The order
    is deterministic: variant, then boundary count, then the cycle
    multiset compared in descending-sorted form, then the pattern.
    """
    return [ExtremalParams(*fields) for fields, _ in _family_matrices(n, k)]


def _families_text(n: int, k: int, families: Sequence[tuple[tuple, tuple[int, ...]]]) -> str:
    """The ``extremal`` listing of :func:`_family_matrices` pairs: each family's line, then its matrix text.

    X and Y are read off the matrix text: a source row holds its X row in
    columns r..n-s-1, a cycle row its Y row from column n-s on. The
    fields before X are written once for each run of families with the
    same variant, block sizes and cycle lengths, and each distinct row
    value is formatted once.
    """
    spec, sigma, order = f"0{n}b", ",".join(map(str, range(n))), str(n)
    texts: dict[int, str] = {}
    blocks, group, head = [], None, ""
    for (variant, r, s, cycles, _), rows in families:
        if group != (variant, r, s, cycles):
            group = (variant, r, s, cycles)
            head = " ".join([f"variant={variant}", *_decomposition_lines(n, k, r, s, cycles, sigma)])
        lines = [texts[row] if row in texts else texts.setdefault(row, format(row, spec)[::-1]) for row in rows]
        x, y = [" X=" + text[r : n - s] for text in lines[:r]], [" Y=" + text[n - s :] for text in lines[r : n - s]]
        blocks.append("\n".join(["".join([head, *x, *y]), order, *lines, ""]))
    return "\n".join(blocks)


def family_line(n: int, k: int, params: ExtremalParams) -> str:
    """Variant tag, then the decomposition fields with identity sigma; raises :class:`InvalidParams`."""
    return _families_text(n, k, [(astuple(params), _family_rows(n, k, params))]).split("\n", 1)[0]
