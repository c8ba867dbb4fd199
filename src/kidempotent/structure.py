"""Canonical structure of k-idempotent 0-1 matrices.

A 0-1 matrix A satisfies A^k = A (k >= 2) exactly when, after a
simultaneous row/column relabeling, it takes the block form

    [ 0  X  X P^T Y ]
    [ 0  P     Y    ]
    [ 0  0     0    ]

where P is a direct sum of cycle-adjacency blocks whose lengths all
divide k - 1, and the corner block X P^T Y must itself be 0-1. The
square zero blocks may be empty. This module decides k-idempotency two
independent ways (a saturating power computation and a structural
certification), recovers the block data from a matrix, rebuilds matrices
from block data, and computes the minimal index k for which A^k = A.
The certification checks, in the original labels, that A cut to its
core (the vertices with both an in-arc and an out-arc) is a permutation
matrix, which is P, and that the source-to-sink arcs equal X P^T Y:
every arc u -> w from a source to a sink comes from exactly one core
vertex c with u -> c and pred(c) -> w. Nothing is relabeled before a
matrix is accepted; an accepted one is relabeled once, into canonical
order, and its X and Y blocks are read off the relabeled rows.

The module also states the density theorem: a k-idempotent matrix of
order n has at most gamma(n) ones, (n+1)^2/4 for odd n and (n^2+2n)/4
for even n, with equality exactly for the relabelings of two shapes.
Variant A has an allowed number of source rows, X all ones and one 1 in
each column of Y; variant B, its mirror image, an allowed number of
sink columns, Y all ones and one 1 in each row of X. The allowed count
is (n-1)/2 for odd n, and n/2 - 1 or n/2 for even n. Either shape makes
the corner X P^T Y all ones: in A each corner entry counts the one 1 of
a Y column, in B it is the full Y row that the one X bit selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import repeat
from math import lcm
from operator import or_, xor
from typing import Mapping, Sequence

from .matrix01 import (
    Matrix01,
    Permutation,
    _pack_rows,
    _parse_decimal,
    _read_rows,
    _reorder_rows,
    _require_int,
    _require_ints,
    _sat_power_rows,
    _write_rows,
)

__all__ = [
    "CanonicalDecomposition",
    "ComposeError",
    "CycleLengthInvalid",
    "DecompositionFormatError",
    "ProductNotZeroOne",
    "StructureError",
    "StructureErrorKind",
    "allowed_boundary_counts",
    "compose",
    "decompose",
    "gamma",
    "idempotency_index",
    "is_k_idempotent",
    "matches_maximum_form",
    "parse_decomposition",
    "power_failure",
    "serialize_decomposition",
]


def _require_k(k: int) -> None:
    _require_int(k, "k must be an integer >= 2", 2)


class StructureErrorKind(Enum):
    NOT_ZERO_ONE = "NotZeroOne"
    POWER_MISMATCH = "PowerMismatch"


class StructureError(Exception):
    """Evidence that a matrix is not k-idempotent.

    ``NOT_ZERO_ONE`` means some entry of A^k is at least 2, and
    ``POWER_MISMATCH`` means A^k is a 0-1 matrix that differs from A.
    The witness is the first offending entry in row-major order.
    :func:`decompose` returns (rather than raises) instances of this
    class so enumeration loops can branch on the outcome cheaply.
    """

    def __init__(self, kind: StructureErrorKind, witness: tuple[int, int]):
        super().__init__(f"{kind.value} at entry {witness}")
        self.kind = kind
        self.witness = witness


class ComposeError(ValueError):
    """Base class for block-composition parameter errors."""


class CycleLengthInvalid(ComposeError):
    def __init__(self, cycle_length: int, k: int):
        super().__init__(f"cycle length {cycle_length} does not divide k-1 = {k - 1}")
        self.cycle_length = cycle_length
        self.k = k


class ProductNotZeroOne(ComposeError):
    """The derived corner block X P^T Y has an entry of at least 2.

    The witness is in canonical coordinates, whatever sigma is: row i
    is X row i, and column r + m + j is corner column j.
    """

    def __init__(self, witness: tuple[int, int]):
        super().__init__(f"corner block entry {witness} is at least 2")
        self.witness = witness


class DecompositionFormatError(ValueError):
    """Decomposition text that does not follow the serialization exactly."""


def is_k_idempotent(a: Matrix01, k: int) -> bool:
    """Whether A^k = A, decided in the saturating semiring."""
    return power_failure(a, k) is None


def power_failure(a: Matrix01, k: int) -> StructureError | None:
    """None when A^k = A, otherwise the witnessed reason it is not.

    Both planes of A^k are compared whole first; only a failure walks
    the rows, to its witness.
    """
    _require_k(k)
    p1, p2 = _sat_power_rows(a.rows, k)
    if any(p2):
        kind, diffs = StructureErrorKind.NOT_ZERO_ONE, p2
    elif p1 != a.rows:
        kind, diffs = StructureErrorKind.POWER_MISMATCH, map(xor, p1, a.rows)
    else:
        return None
    i, diff = next((i, d) for i, d in enumerate(diffs) if d)
    return StructureError(kind, (i, (diff & -diff).bit_length() - 1))


def _corner_rows(x_rows: Sequence[int], through: Mapping[int, int] | Sequence[int], m: int) -> list[int]:
    """Rows of the corner block X P^T Y, which must be 0-1.

    ``through[c]`` is row c of P^T Y: the Y row of the vertex whose cycle
    successor is c. Bit c of an X row meets that row. Raises
    :class:`ProductNotZeroOne` at the first entry of 2 or more, at
    column ``len(x_rows) + m + j`` for corner column j: with m the core
    size that is the witness in coordinates of the composed matrix.
    """
    corner = []
    for i, bits in enumerate(x_rows):
        acc1 = 0
        acc2 = 0
        while bits:
            low = bits & -bits
            bits ^= low
            y_row = through[low.bit_length() - 1]
            acc2 |= acc1 & y_row
            acc1 |= y_row
        if acc2:
            j = (acc2 & -acc2).bit_length() - 1
            raise ProductNotZeroOne((i, len(x_rows) + m + j))
        corner.append(acc1)
    return corner


def _analyze_rows(rows: tuple[int, ...], n: int):
    """k-independent structural certification, in the original labels.

    Returns (order, r, cycle_lengths), or None when the matrix cannot be
    k-idempotent for any k: ``order`` lists the n vertices in canonical
    order, r of them sources, and ``cycle_lengths`` the lengths of the
    orbits that follow them. The core is the set of vertices with both an
    in-arc and an out-arc; the other vertices are sources (out-arcs only)
    and sinks (isolated ones too), so the core-to-core arcs are exactly
    P. Two rules remain:

    - A cut to the core is a permutation matrix: every core vertex has
      exactly one out-arc into the core, and those arcs reach all of it;
    - the source-to-sink arcs must equal the product X P^T Y exactly: a
      source row's sink bits are the saturating OR of the sink bits of
      c's cycle predecessor over its core bits c, with no sink hit twice.

    Both rules are checked in the original labels. The first pass builds
    only the in-arc and out-arc masks, so a core that is no permutation is
    rejected before any list or dict is built: a walk along the core bits
    checks that each core row is one cycle successor plus sink bits
    (nothing points into a source) and files the sink bits under the
    successor, as the rows of P^T Y. Only the core points whose predecessor
    has sink bits are filed, and :func:`_corner_rows` reads the X rows (the
    sources are the bits of ``has_out ^ core``) masked to them; with none
    filed the corner is zero and is not built. Orbits and sinks are listed on acceptance.

    ``order`` holds the sources ascending, then the orbits sorted by
    (length, smallest vertex), each starting at its smallest vertex and
    following arcs, then the sinks ascending: the canonical order into
    which :func:`_canonical_form` relabels an accepted matrix, once.
    """
    has_in = 0
    has_out = 0
    bit = 1
    for row in rows:
        if row:
            has_in |= row
            has_out |= bit
        bit <<= 1
    core = has_in & has_out
    image = 0
    live = 0  # the filed core points, whose predecessor has sink bits; through exists once it is nonzero
    bits = core
    while bits:
        v = bits.bit_length() - 1
        bits ^= 1 << v
        row = rows[v]
        succ = row & core
        if succ.bit_count() != 1:
            return None
        image |= succ
        if row != succ:
            if not live:
                through = {}
            through[succ.bit_length() - 1] = row ^ succ
            live |= succ
    if image != core:
        return None
    outside = ~core
    order: list[int] = []  # the sources first
    bits = has_out ^ core
    while bits:
        low = bits & -bits
        bits ^= low
        order.append(low.bit_length() - 1)
    if order:
        try:
            # the witness is not reported, so its column offset is moot
            corner = _corner_rows([rows[u] & live for u in order], through, 0) if live else repeat(0)
        except ProductNotZeroOne:
            return None
        for u, row in zip(order, corner):
            if rows[u] & outside != row:
                return None
    r = len(order)

    orbits: list[list[int]] = []
    unvisited = core
    while unvisited:
        low = unvisited & -unvisited
        unvisited ^= low
        start = low.bit_length() - 1
        orbit = [start]
        cur = (rows[start] & core).bit_length() - 1
        while cur != start:
            unvisited ^= 1 << cur
            orbit.append(cur)
            cur = (rows[cur] & core).bit_length() - 1
        orbits.append(orbit)
    orbits.sort(key=len)  # stable: the orbits were found by smallest vertex
    for orbit in orbits:
        order += orbit
    bits = ~has_out & ((1 << n) - 1)  # the zero rows, the sinks
    while bits:
        low = bits & -bits
        bits ^= low
        order.append(low.bit_length() - 1)
    return order, r, tuple(map(len, orbits))


def _check_header(n: int, r: int, cycle_lengths: Sequence[int], s: int, sigma_length: int, error: type) -> None:
    """The size rules of a decomposition, raised as ``error``.

    r and s must be non-negative, every cycle length positive, r + m + s
    equal to n with m the cycle total, and sigma of n entries.
    """
    if r < 0 or s < 0:
        raise error("block sizes must be non-negative")
    if min(cycle_lengths, default=1) < 1:
        raise error("cycle lengths must be positive")
    if r + sum(cycle_lengths) + s != n:
        raise error("r + cycle total + s must equal n")
    if sigma_length != n:
        raise error("sigma length differs from n")


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Block data recovered from a k-idempotent matrix.

    ``source_to_cycle`` holds the X block as bit-packed rows of width
    ``cycle_total`` and ``cycle_to_sink`` holds the Y block as rows of
    width ``sink_count``. The corner block is never stored; it is always
    derived as the exact product X P^T Y. ``sigma`` maps each original
    index to its canonical position, so permuting the composed canonical
    matrix by ``sigma`` reproduces the original matrix exactly.

    The block fields are stored as tuples, whatever sequences they are
    given as, so equal blocks compare and hash equal. An ill-shaped
    instance is refused when built (``ValueError``): n, k, the sizes and
    the cycle lengths must be of type int, the sizes must add up to n,
    sigma must be a :class:`Permutation` of n entries, X must be r x m
    and Y m x s. The k rules are checked when rows are composed.
    """

    n: int
    k: int
    source_count: int
    cycle_lengths: tuple[int, ...]
    sink_count: int
    source_to_cycle: tuple[int, ...]
    cycle_to_sink: tuple[int, ...]
    sigma: Permutation

    def __post_init__(self) -> None:
        for name in ("cycle_lengths", "source_to_cycle", "cycle_to_sink"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        sizes = (self.n, self.k, self.source_count, self.sink_count, *self.cycle_lengths)
        _require_ints(sizes, "n, k, block sizes and cycle lengths must be of type int")
        if not isinstance(self.sigma, Permutation):
            raise ValueError("sigma must be a Permutation")
        r, m, s = self.source_count, sum(self.cycle_lengths), self.sink_count
        _check_header(self.n, r, self.cycle_lengths, s, len(self.sigma), ValueError)
        if (len(self.source_to_cycle), len(self.cycle_to_sink)) != (r, m):
            raise ValueError("X and Y row counts must equal r and the cycle total")
        _require_ints(self.source_to_cycle, "source block row exceeds cycle width", m)
        _require_ints(self.cycle_to_sink, "cycle block row exceeds sink width", s)

    @property
    def cycle_total(self) -> int:
        return sum(self.cycle_lengths)

    def source_to_sink(self) -> tuple[int, ...]:
        """Derived corner block rows, width ``sink_count``, read off the composed rows.

        Source row i holds corner row i above bit r + m. The blocks are
        checked as for :meth:`canonical_matrix`.
        """
        shift = self.source_count + self.cycle_total
        return tuple([row >> shift for row in self._canonical_rows()[: self.source_count]])

    def _canonical_rows(self) -> tuple[int, ...]:
        """The composed rows; the shape was checked at construction, so only the k rules remain."""
        _require_k(self.k)
        for length in self.cycle_lengths:
            if (self.k - 1) % length:
                raise CycleLengthInvalid(length, self.k)
        blocks = self.source_to_cycle, self.cycle_to_sink
        return _build_rows(self.source_count, self.cycle_lengths, self.sink_count, *blocks)

    def canonical_matrix(self) -> Matrix01:
        """The composed block matrix, in canonical layout."""
        rows = self._canonical_rows()
        return Matrix01(len(rows), rows)

    def original_matrix(self) -> Matrix01:
        """The matrix this decomposition came from: the canonical rows relabeled by sigma, after
        the corner check, so a :class:`ProductNotZeroOne` witness is in canonical coordinates."""
        rows = _reorder_rows(self._canonical_rows(), self.sigma.mapping)[0]
        return Matrix01(len(rows), rows)


def _canonical_form(rows: tuple[int, ...], n: int, k: int):
    """The matrix relabeled into canonical order by its :func:`_analyze_rows` certification;
    None when that rejects it or its period, the lcm of its cycle lengths, does not divide k - 1.

    One :func:`matrix01._reorder_rows` call moves all n rows, and every
    bit in them, into the canonical order; no block is read.

    Returns (key, to_canonical): ``key`` is (r, cycle_lengths,
    canonical_rows), which does not depend on k and fixes the blocks that
    :func:`_blocks` reads, and ``to_canonical[v]`` is the canonical
    position of the original index v, the inverse of the order. The
    canonical rows are those of ``permute(A, Permutation(order))``.
    """
    analysis = _analyze_rows(rows, n)
    if analysis is None or (k - 1) % lcm(*analysis[2]):
        return None
    order, r, lengths = analysis
    canonical_rows, to_canonical = _reorder_rows(rows, order)
    return (r, lengths, canonical_rows), to_canonical


def _blocks(r: int, cycle_lengths: tuple[int, ...], canonical_rows: tuple[int, ...]) -> tuple:
    """(r, cycle_lengths, s, X, Y), the arguments of :func:`_build_rows`, read off canonical rows
    by shifts and masks: a source row holds its X row above bit r (no source, no X read), a cycle
    row Y above bit r + m."""
    shift = r + sum(cycle_lengths)
    cycle_mask = (1 << (shift - r)) - 1
    x_rows = tuple([(row >> r) & cycle_mask for row in canonical_rows[:r]]) if r else ()
    y_rows = tuple([row >> shift for row in canonical_rows[r:shift]])
    return r, cycle_lengths, len(canonical_rows) - shift, x_rows, y_rows


def decompose(a: Matrix01, k: int) -> CanonicalDecomposition | StructureError:
    """Recover the canonical block data, or explain why none exists.

    The acceptance decision is purely structural (the core is a
    permutation, the corner block equals X P^T Y, cycle lengths divide
    k-1); A^k is never consulted for it. Only when the
    structure is rejected is one saturating power taken, to label the
    returned :class:`StructureError` with an honest witness.
    """
    _require_k(k)
    form = _canonical_form(a.rows, a.n, k)
    if form is not None:
        key, to_canonical = form
        return CanonicalDecomposition(a.n, k, *_blocks(*key), Permutation(tuple(to_canonical)))
    failure = power_failure(a, k)
    if failure is None:
        raise RuntimeError("structural rejection of a matrix whose power matches")
    return failure


def idempotency_index(a: Matrix01) -> int | None:
    """Minimal k >= 2 with A^k = A, or None when no such k exists.

    The structure fixes the answer: when the structural certification
    passes, the valid k are exactly those with every cycle length
    dividing k-1, so the minimum is lcm(cycle lengths) + 1 (empty lcm
    is 1), read off the certification's ``cycle_lengths``. When it fails,
    no k works. Nothing is relabeled and no block is gathered.
    """
    analysis = _analyze_rows(a.rows, a.n)
    if analysis is None:
        return None
    return lcm(*analysis[2]) + 1


def _build_rows(
    source_count: int, cycle_lengths: Sequence[int], sink_count: int, x_rows: Sequence[int], y_rows: Sequence[int]
) -> tuple[int, ...]:
    """The composed rows, unchecked: the blocks must have the shape that
    :class:`CanonicalDecomposition` checks when it is built.

    Every composed matrix and derived corner is built here. The blocks of
    :func:`_blocks` have that shape by construction; only the
    corner is checked, by :func:`_corner_rows` on the rows of P^T Y. Only
    the core points whose predecessor has a nonzero Y row add to X P^T Y,
    so X is masked to them.
    """
    m = sum(cycle_lengths)
    cycle_rows = []
    through = [0] * m
    live = 0
    offset = 0
    for length in cycle_lengths:
        for t in range(length):
            succ = offset + (t + 1) % length
            through[succ] = y_rows[offset + t]
            if y_rows[offset + t]:
                live |= 1 << succ
            cycle_rows.append((1 << (source_count + succ)) | (y_rows[offset + t] << (source_count + m)))
        offset += length
    z_rows = _corner_rows([row & live for row in x_rows], through, m)
    rows = [(x << source_count) | (z << (source_count + m)) for x, z in zip(x_rows, z_rows)]
    return (*rows, *cycle_rows) + (0,) * sink_count


def compose(
    source_count: int,
    cycle_lengths: Sequence[int],
    sink_count: int,
    source_to_cycle: Sequence[Sequence[int]],
    cycle_to_sink: Sequence[Sequence[int]],
    k: int,
) -> Matrix01:
    """Build the canonical block matrix from its parameters.

    The result is guaranteed k-idempotent. The X and Y blocks are given
    as nested 0/1 sequences of shapes (source_count x total cycle
    length) and (total cycle length x sink_count), packed into a
    :class:`CanonicalDecomposition` with the identity sigma. Raises
    :class:`CycleLengthInvalid` when a cycle length does not divide k-1,
    :class:`ProductNotZeroOne` when the derived corner block is not 0-1,
    and ``ValueError`` on dimension mismatches.
    """
    _require_k(k)
    m = sum(cycle_lengths)
    x_rows = _pack_rows(source_to_cycle, m, "source block row width mismatch")
    y_rows = _pack_rows(cycle_to_sink, sink_count, "cycle block row width mismatch")
    n = source_count + m + sink_count
    blocks = (source_count, cycle_lengths, sink_count, x_rows, y_rows)
    return CanonicalDecomposition(n, k, *blocks, Permutation.identity(n)).canonical_matrix()


def serialize_decomposition(d: CanonicalDecomposition) -> str:
    """Fixed-order text form: n, k, r, s, cycle_lengths, sigma, then ``source_count`` X rows of width
    ``cycle_total`` and ``cycle_total`` Y rows of width ``sink_count``. The derived corner is never serialized."""
    head = _decomposition_lines(d.n, d.k, d.source_count, d.sink_count, d.cycle_lengths, ",".join(map(str, d.sigma.mapping)))
    x, y = _write_rows(d.source_to_cycle, d.cycle_total, "X="), _write_rows(d.cycle_to_sink, d.sink_count, "Y=")
    return "\n".join([*head, x + y])


def _decomposition_lines(n: int, k: int, r: int, s: int, cycle_lengths, sigma: str) -> list[str]:
    """The header lines of :func:`serialize_decomposition`, with sigma already written out."""
    return [f"n={n}", f"k={k}", f"r={r}", f"s={s}", "cycle_lengths=" + ",".join(map(str, cycle_lengths)), "sigma=" + sigma]


def _parse_int_list(value: str, noun: str) -> tuple[int, ...]:
    """Comma-separated decimal fields, each read by :func:`matrix01._parse_decimal`; the empty value is no field."""
    return tuple(_parse_decimal(part, noun, DecompositionFormatError) for part in value.split(",")) if value else ()


def parse_decomposition(text: str) -> CanonicalDecomposition:
    """Parse the serialization produced by :func:`serialize_decomposition`.

    The X rows, then the Y rows, are read as one block each by
    ``matrix01._read_rows``. Only text that it refuses is split into lines,
    to name the first bad one.
    """
    if not text.endswith("\n"):
        raise DecompositionFormatError("decomposition text must end with a newline")
    lines = text.split("\n", 6)  # the header, then the rows as one text; all lines once a row block fails

    def take(pos: int, key: str) -> str:
        if pos >= len(lines) or not lines[pos].startswith(key + "="):
            raise DecompositionFormatError(f"expected '{key}=' on line {pos + 1}")
        return lines[pos][len(key) + 1 :]

    n = _parse_decimal(take(0, "n"), "n value", DecompositionFormatError)
    k = _parse_decimal(take(1, "k"), "k value", DecompositionFormatError)
    if k < 2:
        raise DecompositionFormatError("k must be at least 2")
    r = _parse_decimal(take(2, "r"), "r value", DecompositionFormatError)
    s = _parse_decimal(take(3, "s"), "s value", DecompositionFormatError)
    cycle_lengths = _parse_int_list(take(4, "cycle_lengths"), "cycle length value")
    mapping = _parse_int_list(take(5, "sigma"), "sigma entry value")
    _check_header(n, r, cycle_lengths, s, len(mapping), DecompositionFormatError)
    m = sum(cycle_lengths)
    try:
        sigma = Permutation(mapping)
    except ValueError as exc:
        raise DecompositionFormatError(str(exc)) from None
    rest, split = lines[6], r * (m + 3)
    x_rows, y_rows = _read_rows(rest[:split], r, m, "X="), _read_rows(rest[split:], m, s, "Y=")
    if x_rows is None or y_rows is None:
        lines = text[:-1].split("\n")
        for pos in range(6, 6 + r + m):
            key, width = ("X", m) if pos < 6 + r else ("Y", s)
            if _read_rows(take(pos, key) + "\n", 1, width) is None:
                raise DecompositionFormatError(f"bad {key} row on line {pos + 1}")
        raise DecompositionFormatError("unexpected trailing content")  # every row is good, so more follows
    return CanonicalDecomposition(n, k, r, cycle_lengths, s, x_rows, y_rows, sigma)


def gamma(n: int) -> int:
    """Largest possible number of ones in a k-idempotent matrix of order n."""
    _require_int(n, "order must be positive", 1)
    if n % 2:
        return (n + 1) ** 2 // 4
    return (n * n + 2 * n) // 4


def allowed_boundary_counts(n: int) -> tuple[int, ...]:
    """Source counts (variant A) or sink counts (variant B) attaining gamma(n)."""
    _require_int(n, "order must be positive", 1)
    if n % 2:
        return ((n - 1) // 2,)
    return (n // 2 - 1, n // 2)


def matches_maximum_form(d: CanonicalDecomposition) -> bool:
    """Whether decomposed block data fits variant A or variant B; see :func:`_fits_maximum_form`."""
    return _fits_maximum_form(d.source_count, d.cycle_lengths, d.sink_count, d.source_to_cycle, d.cycle_to_sink)


def _fits_maximum_form(
    r: int, cycle_lengths: Sequence[int], s: int, x_rows: Sequence[int], y_rows: Sequence[int]
) -> bool:
    """Whether the blocks X and Y fit variant A or B.

    The all-ones corner of the density theorem is not read: each shape
    implies it (see the module docstring), so blocks whose corner is not
    0-1 fit neither. Every Y column carries exactly one 1 when the Y
    rows cover all s columns with s ones in all. Empty blocks satisfy
    their conditions vacuously, which covers the degenerate corners with
    no sources or no sinks.
    """
    m = sum(cycle_lengths)
    if r + m + s < 1:
        return False
    allowed = allowed_boundary_counts(r + m + s)
    full_sink = (1 << s) - 1
    if r in allowed and all(row == (1 << m) - 1 for row in x_rows):
        if reduce(or_, y_rows, 0) == full_sink and sum(map(int.bit_count, y_rows)) == s:
            return True
    return s in allowed and all(row == full_sink for row in y_rows) and all(row.bit_count() == 1 for row in x_rows)
