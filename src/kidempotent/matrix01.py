"""Bit-packed square 0-1 matrices and their power arithmetic.

A matrix row is a Python int used as a bitset: bit j of ``rows[i]`` holds
entry (i, j). Powers that only need to distinguish the entry values 0, 1
and "2 or more" are computed in the saturating semiring {0, 1, 2+}. That
semiring is the quotient of non-negative integer arithmetic that caps
values at 2; capping commutes with both addition and multiplication, so
repeated squaring in the quotient agrees with exact powering followed by
capping. This is all a k-idempotency test ever needs, and it keeps the
word size bounded during bulk enumeration.

Every value in this module is immutable and every function is pure, so
everything can be shared freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, or_
from typing import Iterable, Sequence

__all__ = [
    "INT64_MAX",
    "Matrix01",
    "MatrixFormatError",
    "Permutation",
    "exact_power",
    "from_text",
    "nnz",
    "pack_row",
    "permute",
    "sat_power",
    "to_text",
    "unpack_row",
]

INT64_MAX = 2**63 - 1


class MatrixFormatError(ValueError):
    """Matrix text that does not follow the line format exactly."""


class ArgumentRangeError(ValueError):
    """An order or exponent argument outside the range a function accepts.

    Raised before any work is done. The command line maps it to exit 2.
    """


def pack_row(values: Iterable[int]) -> int:
    """Pack an iterable of 0/1 entries into a row bitset."""
    acc = 0
    for j, v in enumerate(values):
        if v not in (0, 1):
            raise ValueError(f"entry {v!r} is not 0 or 1")
        acc |= v << j
    return acc


def unpack_row(row: int, width: int) -> list[int]:
    """Expand a row bitset back into a list of 0/1 entries."""
    return [(row >> j) & 1 for j in range(width)]


def _parse_decimal(text: str, noun: str, error: type) -> int:
    """The value of a decimal field: ASCII digits, no leading zero; else ``error`` naming ``noun``."""
    if not text.isascii() or not text.isdigit() or (len(text) > 1 and text[0] == "0"):
        raise error(f"bad {noun} {text[:20]!r} (length {len(text)})")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int() digit limit
        raise error(f"{noun} of {len(text)} digits is too long") from None


@dataclass(frozen=True)
class Matrix01:
    """Square 0-1 matrix of order ``n`` with bit-packed rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 0:
            raise ValueError("order must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        limit = 1 << self.n
        for row in self.rows:
            if not 0 <= row < limit:
                raise ValueError("row has bits outside the matrix order")

    @classmethod
    def zero(cls, n: int) -> "Matrix01":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Matrix01":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def ones(cls, n: int) -> "Matrix01":
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def cycle(cls, n: int) -> "Matrix01":
        """Adjacency matrix of the directed n-cycle (basic circulant)."""
        if n < 1:
            raise ArgumentRangeError("cycle order must be positive")
        return cls(n, tuple(1 << ((i + 1) % n) for i in range(n)))

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "Matrix01":
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        return cls(n, tuple(pack_row(row) for row in entries))

    def to_lists(self) -> list[list[int]]:
        return [unpack_row(row, self.n) for row in self.rows]


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}, stored as the image tuple ``mapping``."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if not {*map(type, self.mapping)} <= {int}:  # 1.0 and True would sort equal to 1
            raise ValueError("mapping entries must be of type int")
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]


def nnz(a: Matrix01) -> int:
    """Number of nonzero entries."""
    return sum(row.bit_count() for row in a.rows)


def permute(a: Matrix01, sigma: Permutation) -> Matrix01:
    """Simultaneous row/column relabeling.

    Entry (i, j) of the result is entry (sigma(i), sigma(j)) of the
    input, i.e. the conjugation of ``a`` by the permutation matrix that
    encodes ``sigma``. Preserves the nonzero count and the row-sum
    multiset.
    """
    if len(sigma) != a.n:
        raise ValueError("permutation order differs from matrix order")
    return Matrix01(a.n, _reorder_rows(a.rows, sigma.mapping)[0])


def _reorder_rows(rows: tuple[int, ...], order: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """The rows of ``permute`` by ``Permutation(order)``, with ``position``, the inverse of ``order``.

    Row i is row ``order[i]`` with each set bit v moved to bit ``position[v]``. The one relabel
    entry: :func:`permute` and both relabels of the structural route call it.
    """
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    return tuple(_relabel_rows(map(rows.__getitem__, order), position)), position


# A row with more than 8 + n // 12 set bits is dense. The dense rows of
# a call are moved together by one transpose, any other row by walking
# its set bits, at 0.1-0.2 us a bit. Once a call transposes, each further
# dense row costs 0.5-0.6 us up to n = 100, 1.5 us at n = 400 and 3.3 us
# at n = 1000, the walk of 4-6, 9 and 17 bits; but the transpose itself
# costs 8.4, 34 and 90 us at n = 100, 400 and 1000, the walk of 57, 200
# and 450 bits. The bound lies between the two break-evens at every
# width (2-core Xeon VM, Python 3.11). Rows of width 8 or less, as in a
# census, are therefore always walked.
_WALK_BITS = 8
_WALK_COLUMNS_PER_BIT = 12


def _relabel_rows(rows: Iterable[int], position: Sequence[int]) -> list[int]:
    """Each row with every set bit v moved to bit ``position[v]``.

    The one relabel kernel. A sparse row is walked bit by bit, in time
    linear in its set bits. The dense rows of a call are moved together,
    at C speed: each is written out as its (n + 1)-character binary
    string, where character n - v is bit v and the leading "0" saves
    width 0 from empty numerals. In the joined text, the strided slice
    from c on is column c of every dense row; joined in their new order,
    the columns hold each output row as a strided slice, parsed back by
    ``int(..., 2)``.
    """
    n = len(position)
    dense = _WALK_BITS + n // _WALK_COLUMNS_PER_BIT
    gather = None  # indices in out of the dense rows, which wait there unmoved
    out = []
    for bits in rows:
        if bits.bit_count() > dense:
            if gather is None:
                gather = []
            gather.append(len(out))
            out.append(bits)
            continue
        acc = 0
        while bits:
            low = bits & -bits
            bits ^= low
            acc |= 1 << position[low.bit_length() - 1]
        out.append(acc)
    if gather is not None:
        step = n + 1
        # map, not a comprehension: naming out there makes it a cell, slower on every call, a census's too
        text = "".join(map(f"{{:0{step}b}}".format, map(out.__getitem__, gather)))
        columns = [text[::step]] * step  # column 0, the leading "0"s, stays first
        for v, p in enumerate(position):
            columns[n - p] = text[n - v :: step]
        moved = "".join(columns)
        count = len(gather)
        for i, at in enumerate(gather):
            out[at] = int(moved[i::count], 2)
    return out


def _sat_mul_rows(
    a1: tuple[int, ...],
    a2: tuple[int, ...],
    b1: tuple[int, ...],
    b2: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Product of two saturating matrices given as (ge1, ge2) bit-planes: the entries >= 1 and >= 2.

    Row combination: entry (i, j) reaches 2+ when two different middle
    indices contribute, or when either factor already contributes a 2+.
    """
    c1 = []
    c2 = []
    for i in range(len(a1)):
        acc1 = 0
        acc2 = 0
        bits = a1[i]
        while bits:
            low = bits & -bits
            bits ^= low
            t = low.bit_length() - 1
            row = b1[t]
            acc2 |= (acc1 & row) | b2[t]
            acc1 |= row
        bits = a2[i]
        while bits:
            low = bits & -bits
            bits ^= low
            acc2 |= b1[low.bit_length() - 1]
        c1.append(acc1)
        c2.append(acc2)
    return tuple(c1), tuple(c2)


def _power(base, m: int, mul):
    """``base`` to the power m under the associative product ``mul``; m must be >= 1.

    Left-to-right binary powering: one squaring per bit of m after the
    leading one, and one product by ``base`` per set bit among them. The
    right factor of every product that is not a squaring is then ``base``
    itself, the sparsest factor on offer; :func:`_lane_mul` skips the
    terms of its zero entries.
    """
    result = base
    for bit in bin(m)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def _sat_power_rows(rows: tuple[int, ...], m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Repeated squaring in the saturating semiring; m must be >= 1.

    For m >= 3, when A cut to its core C (the vertices with both an in-arc
    and an out-arc) has at most one 1 per row, as in every k-idempotent
    matrix, only the core is powered: as the map f from i to the column
    of that 1 (-1 for none), by composing index lists over the points of
    C alone. Every inner vertex of a walk of length m lies in C, so
    A^m = A[:, C] R, where row c of R is row f^(m-2)(c) of A (zero where
    f^(m-2)(c) is -1). Where that row is bit c alone, as at most core
    points of a k-idempotent A, bit c of each row of A passes straight
    through; one product walks the other, live, bits, and the parts are
    added with saturation. Any other A is powered whole. The identity is
    exact over the integers and what passes through is read off R, so
    both planes match plain squaring without any structural fact, such
    as a cycle test.
    """
    zeros = (0,) * len(rows)
    if m >= 3:
        has_in = has_out = 0
        for i, row in enumerate(rows):
            if row:
                has_out |= 1 << i
                has_in |= row
        core = has_out & has_in
        points = [c for c in range(len(rows)) if core >> c & 1]
        inner = [rows[c] & core for c in points]
        if max(map(int.bit_count, inner), default=0) <= 1:
            # i -> h[g[i]] on point indices. End marks -1 keep lists 2 long: itemgetter gives tuples.
            then = lambda g, h: itemgetter(*g)(h)
            index = dict(zip([-1, *points], range(-1, len(points))))
            f = [*(index[row.bit_length() - 1] for row in inner), -1, -1]
            right = then(_power(f, m - 2, then), [*map(rows.__getitem__, points), 0, 0])
            through = live = 0
            walked = [0] * len(rows)  # R by vertex, at the live points only
            for c, r in zip(points, right):
                if r == 1 << c:
                    through |= r
                elif r:
                    live |= 1 << c
                    walked[c] = r
            q1, q2 = _sat_mul_rows([row & live for row in rows], zeros, walked, zeros)
            passed = [row & through for row in rows]
            return tuple(map(or_, q1, passed)), tuple([y2 | (y1 & x) for y1, y2, x in zip(q1, q2, passed)])
    return _power((rows, zeros), m, lambda a, b: _sat_mul_rows(*a, *b))


def _lane_cols(b, n: int):
    """Column table of the bit-sliced right factor ``b`` of :func:`_lane_mul`.

    Entry j lists (t, ge1, ge2) for each row t whose entry (t, j) has a
    ge1 plane that is not zero; the second field says whether ``b`` has
    a ge2 plane that is not zero.
    """
    b1, b2 = b
    cols = [[(t, b1[t * n + j], b2[t * n + j]) for t in range(n) if b1[t * n + j]] for j in range(n)]
    return cols, any(b2)


def _lane_mul(a, right, n: int):
    """Saturating product of two bit-sliced matrices; the left one may have any number of rows.

    A bit-sliced matrix is a (ge1, ge2) pair of flat row-major lists of
    entry planes, n per row; lane x of every plane belongs to the same matrix,
    and every ge2 plane lies inside its ge1 plane. ``right`` is the
    :func:`_lane_cols` table of the right factor, so a factor used
    twice is tabled once. The combination rule is that of
    :func:`_sat_mul_rows`, applied to all lanes at once. A middle index
    t adds nothing where either factor's ge1 plane is zero, so such
    terms are skipped. When neither factor has a ge2 plane, as in the
    square of a 0/1 matrix, the ge2 terms are left out of the loop;
    otherwise a term with x = a[i, t] and y = b[t, j] adds
    (acc1 | x2 | y2) & x1 & y1 to the ge2 plane, which equals
    (acc1 & x1 & y1) | (x2 & y1) | (x1 & y2) because x2 lies inside x1
    and y2 inside y1. Every product keeps that precondition.
    """
    a1, a2 = a
    cols, twos = right
    c1 = []
    c2 = []
    if not twos and not any(a2):
        for i in range(0, len(a1), n or 1):  # order 0: no rows
            row1 = a1[i : i + n]
            for col in cols:
                acc1 = acc2 = 0
                for t, y1, _ in col:
                    x1 = row1[t]
                    if x1:
                        term = x1 & y1
                        acc2 |= acc1 & term
                        acc1 |= term
                c1.append(acc1)
                c2.append(acc2)
        return c1, c2
    for i in range(0, len(a1), n or 1):
        row1 = a1[i : i + n]
        row2 = a2[i : i + n]
        for col in cols:
            acc1 = acc2 = 0
            for t, y1, y2 in col:
                x1 = row1[t]
                if x1:
                    term = x1 & y1
                    acc2 |= (acc1 | row2[t] | y2) & term
                    acc1 |= term
            c1.append(acc1)
            c2.append(acc2)
    return c1, c2


def _lanes_k_idempotent(n: int, k: int, row_tuples: Sequence[Sequence[int]]) -> int:
    """Bit i set when matrix i, of order n >= 1 and given by its rows, has A^k = A; one lane each.

    Each matrix's rows, packed as an index, are written out in binary,
    last matrix first. In the joined text, every n*n-th character from
    position p on is the plane of entry n*n - 1 - p, as a binary numeral.
    """
    if not row_tuples:
        return 0
    size, spec, texts = n * n, f"0{n * n}b", []
    for rows in reversed(row_tuples):
        packed = 0
        for row in reversed(rows):
            packed = packed << n | row
        texts.append(format(packed, spec))
    text = "".join(texts)
    return _lane_flags([int(text[p::size], 2) for p in reversed(range(size))], k, n, (1 << len(texts)) - 1, size)


def _lane_flags(a: list[int], k: int, n: int, full: int, fixed: int) -> int:
    """Lanes of the bit-sliced 0/1 matrix ``a`` (n*n entry planes) where A^k = A, within ``full``.

    Rows are taken last row first, until every lane has failed. A row i
    whose entries are the same in every lane (i*n >= ``fixed``) is
    powered by a chain of k - 1 one-row products by A when that costs no
    more than the squarings of A^h, h = k // 2. Every other row is row i
    of A^h A^h A^(k % 2), with A^h by plain repeated squaring
    (:func:`_power`; no core peel, as each lane has its own core), built
    when the first such row is reached. A's column table serves every
    product by A.
    """
    pair = (a, [0] * len(a))
    a_cols = _lane_cols(pair, n)
    h = k // 2
    chain = k - 1 <= n * (h.bit_length() + h.bit_count() - 2)
    half = None
    bad = 0
    for i in reversed(range(n)):
        row = slice(i * n, i * n + n)
        if chain and i * n >= fixed:
            power = (a[row], [0] * n)
            for _ in range(k - 1):
                power = _lane_mul(power, a_cols, n)
        else:
            if half is None:
                half = _power(pair, h, lambda x, y: _lane_mul(x, a_cols if y is pair else _lane_cols(y, n), n))
                half_cols = a_cols if half is pair else _lane_cols(half, n)
            power = _lane_mul((half[0][row], half[1][row]), half_cols, n)
            if k % 2:
                power = _lane_mul(power, a_cols, n)
        for entry, q1, q2 in zip(a[row], *power):
            bad |= (q1 ^ entry) | q2
        if not full & ~bad:
            return 0
    return full & ~bad


def sat_power(a: Matrix01, m: int) -> list[list[int]]:
    """Image of the exact power A^m in the saturating semiring, as n x n entry lists.

    Each entry equals min(2, exact A^m entry): 2 where the ge2 plane of
    :func:`_sat_power_rows` has its bit, the ge1 bit otherwise, so the
    result has the shape of :func:`exact_power`. Computed by repeated
    squaring, which is valid because capping at 2 is a semiring
    homomorphism from the non-negative integers. :func:`_sat_power_rows`
    may power only the core of A, but that is plain algebra on zero rows
    and columns, so this stays independent of the structural route.
    """
    if m < 1:
        raise ArgumentRangeError("power must be at least 1")
    p1, p2 = _sat_power_rows(a.rows, m)
    return [[2 if y2 >> j & 1 else y1 >> j & 1 for j in range(a.n)] for y1, y2 in zip(p1, p2)]


def exact_power(a: Matrix01, m: int) -> list[list[int]]:
    """Exact integer power A^m by naive repeated multiplication.

    Serves as the independent reference for :func:`sat_power`. Entries
    beyond the signed 64-bit budget raise ``OverflowError``.
    """
    if m < 1:
        raise ArgumentRangeError("power must be at least 1")
    n = a.n
    cur = a.to_lists()
    for _ in range(m - 1):
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            row = cur[i]
            out = nxt[i]
            for t in range(n):
                c = row[t]
                if c:
                    bits = a.rows[t]
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        out[low.bit_length() - 1] += c
        for out in nxt:
            for v in out:
                if v > INT64_MAX:
                    raise OverflowError("power entry exceeds the 64-bit budget")
        cur = nxt
    return cur


def _write_rows(rows: Sequence[int], width: int, prefix: str = "") -> str:
    """A line of ``prefix``, ``width`` digits (bit 0 first) and a newline per row: the rows are formatted
    last first, joined by the reversed prefix and a newline, and the whole text is reversed once."""
    if not rows or not width:
        return (prefix + "\n") * len(rows)
    return ("\n" + (prefix[::-1] + "\n").join(map(format, reversed(rows), repeat(f"0{width}b"))) + prefix[::-1])[::-1]


def _read_rows(text: str, count: int, width: int, prefix: str = "") -> tuple[int, ...] | None:
    """The rows of ``count`` :func:`_write_rows` lines, or None unless ``text`` is exactly those, checked with no call per
    line: its length, prefixes and newlines as strided slices, and only 0 and 1 elsewhere (int() would take "_" or "+")."""
    step = len(prefix) + width + 1
    if len(text) != count * step or not text.isascii():
        return None
    marks = [text[j::step] for j in (*range(len(prefix)), step - 1)]
    if marks != [c * count for c in prefix + "\n"] or len(text.encode().translate(None, b"01")) != count * (step - width):
        return None
    # one reversed slice, last digit to first (stop None, as -1 means the end): each row reversed, last row first
    backwards = text[-2 : len(prefix) - 1 if prefix else None : -1].split(prefix[::-1] + "\n")
    return tuple(map(int, reversed(backwards), repeat(2))) if count * width else (0,) * count


def to_text(a: Matrix01) -> str:
    """Serialize to the bit-exact text format: a line with the decimal order, then a line of n '0'/'1'
    characters per row, bit 0 first, each line ending in a newline. The order-0 matrix is the single line "0"."""
    return f"{a.n}\n" + _write_rows(a.rows, a.n)


def from_text(text: str) -> Matrix01:
    """Parse the text format of :func:`to_text`, strictly; only refused text is split into lines, to name its fault."""
    if not text.endswith("\n"):
        raise MatrixFormatError("matrix text must end with a newline")
    head, _, body = text.partition("\n")
    n = _parse_decimal(head, "order line", MatrixFormatError)
    rows = _read_rows(body, n, n)
    if rows is not None:
        return Matrix01(n, rows)
    lines = text[:-1].split("\n")
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} row lines, found {len(lines) - 1}")
    first = next(i for i, line in enumerate(lines[1:]) if _read_rows(line + "\n", 1, n) is None)
    raise MatrixFormatError(f"bad row on line {first + 2}")
