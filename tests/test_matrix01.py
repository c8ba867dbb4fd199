import contextlib
import functools
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_matrices, corrupted_texts, outcome, random_decomposition, relabel_reference
from kidempotent import matrix01
from kidempotent.structure import is_k_idempotent
from kidempotent.matrix01 import (
    Matrix01,
    MatrixFormatError,
    Permutation,
    exact_power,
    from_text,
    nnz,
    _parse_decimal,
    _lanes_k_idempotent,
    _power,
    _read_rows,
    _reorder_rows,
    _sat_mul_rows,
    _sat_power_rows,
    _write_rows,
    pack_row,
    permute,
    sat_power,
    to_text,
    unpack_row,
)


def min2(rows):
    return [[min(v, 2) for v in row] for row in rows]


def assert_planes(planes, n):
    """A (ge1, ge2) pair of order n: n rows each, no bit at or above n, ge2 inside ge1."""
    p1, p2 = planes
    assert len(p1) == len(p2) == n
    for y1, y2 in zip(p1, p2):
        assert 0 <= y1 < 1 << n and 0 <= y2 < 1 << n
        assert not y2 & ~y1


class TestBasics:
    def test_nnz(self):
        assert nnz(Matrix01.zero(3)) == 0
        assert nnz(Matrix01.identity(4)) == 4
        assert nnz(Matrix01.ones(2)) == 4

    def test_entry_and_lists(self):
        a = Matrix01.from_lists([[0, 1], [1, 0]])
        assert a == Matrix01.cycle(2)
        assert a.to_lists() == [[0, 1], [1, 0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            Matrix01(2, (4, 0))
        with pytest.raises(ValueError):
            Matrix01(-1, ())
        with pytest.raises(ValueError):
            Matrix01.from_lists([[0, 1]])
        with pytest.raises(ValueError):
            pack_row([0, 2])
        with pytest.raises(ValueError, match="expected 2 rows, got 1"):
            Matrix01(2, (0,))
        with pytest.raises(ValueError, match="cycle order must be positive"):
            Matrix01.cycle(0)

    def test_float_entry_is_refused(self):
        # 1.0 == 1 but cannot be shifted into a row; a bool entry packs to the same bits as its int
        for call in (lambda: pack_row([0, 1.0]), lambda: Matrix01.from_lists([[1.0]])):
            with pytest.raises(ValueError, match=r"^entry 1\.0 is not 0 or 1$"):
                call()
        assert pack_row([True, False, True]) == pack_row([1, 0, 1]) == 0b101

    @pytest.mark.parametrize("row", [1.0, True, "1", None, -1, 2])
    def test_rows_not_int_in_range_are_refused(self, row):
        # 1.0 compares equal to 1 but breaks to_text and the power route; a bool is refused as in every int rule
        with pytest.raises(ValueError) as raised:
            Matrix01(1, (row,))
        assert str(raised.value) == "rows must be of type int with no bits outside the matrix order"

    def test_pack_unpack(self):
        assert unpack_row(pack_row([1, 0, 1, 1]), 4) == [1, 0, 1, 1]


class TestPermutation:
    def test_identity_and_inverse(self):
        # relabeling by p and then by its inverse (1, 2, 0) restores the matrix
        a = Matrix01.from_lists([[0, 1, 1], [0, 0, 1], [1, 0, 0]])
        assert permute(permute(a, Permutation((2, 0, 1))), Permutation((1, 2, 0))) == a
        assert Permutation.identity(3).mapping == (0, 1, 2)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_permute_examples(self):
        a = Matrix01.from_lists([[0, 1], [0, 0]])
        swap = Permutation((1, 0))
        assert permute(a, swap).to_lists() == [[0, 0], [1, 0]]
        assert permute(Matrix01.cycle(2), swap) == Matrix01.cycle(2)
        assert permute(a, Permutation.identity(2)) == a

    def test_permute_order_mismatch(self):
        for a, sigma in (Matrix01.zero(2), Permutation.identity(3)), (Matrix01.identity(3), Permutation((1, 0))):
            with pytest.raises(ValueError) as raised:
                permute(a, sigma)
            assert str(raised.value) == "permutation order differs from matrix order"

    @pytest.mark.parametrize("sigma", [(1, 0), [1, 0], None], ids=["tuple", "list", "none"])
    def test_permute_refuses_a_sigma_that_is_not_a_permutation(self, sigma):
        with pytest.raises(ValueError) as raised:
            permute(Matrix01.identity(2), sigma)
        assert str(raised.value) == "sigma must be a Permutation"

    @pytest.mark.parametrize("mapping", [(1.0, 0.0), (True, False)], ids=["float", "bool"])
    def test_rejects_entries_not_of_type_int(self, mapping):
        # both sort equal to (0, 1), but a decomposition would write its sigma
        # as "1.0,0.0" or "True,False", which its parser refuses
        with pytest.raises(ValueError) as raised:
            Permutation(mapping)
        assert str(raised.value) == "mapping entries must be of type int"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_group_action(self, data):
        n = data.draw(st.integers(0, 5))
        rows = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
        a = Matrix01(n, rows)
        perm = list(range(n))
        sigma = Permutation(tuple(data.draw(st.permutations(perm))))
        tau = Permutation(tuple(data.draw(st.permutations(perm))))
        lhs = permute(permute(a, sigma), tau)
        # entry (i, j) of lhs is entry (sigma(tau(i)), sigma(tau(j))) of a
        rhs = permute(a, Permutation(tuple(sigma(tau(i)) for i in range(n))))
        assert lhs == rhs
        assert nnz(permute(a, sigma)) == nnz(a)
        assert sorted(map(int.bit_count, permute(a, sigma).rows)) == sorted(map(int.bit_count, a.rows))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permute_matches_entry_definition(self, data):
        n = data.draw(st.integers(0, 70))
        rows = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        a = Matrix01(n, rows)
        entries, moved = a.to_lists(), permute(a, sigma).to_lists()
        for i in range(n):
            for j in range(n):
                assert moved[i][j] == entries[sigma(i)][sigma(j)]


# Widths either side of 9, the narrowest at which a full row is transposed.
RELABEL_WIDTHS = [0, 1, 2, 8, 9, 10, 64, 400, 1000]


def reorder_reference(rows, order):
    """Row i is row order[i] with bit v moved to the position of v in order, one bit at a time."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    return tuple(relabel_reference(rows[v], position) for v in order)


@contextlib.contextmanager
def kernel_joins():
    """A list whose length, read on exit, is the number of ``str.join`` calls made by ``_reorder_rows``.

    One transpose joins twice, the text of the dense rows and then its
    reordered columns; the walk joins nothing.
    """
    joins = []
    code = _reorder_rows.__code__

    def hook(frame, event, arg):
        if event == "c_call" and frame.f_code is code and arg.__name__ == "join":
            joins.append(arg)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield joins
    finally:
        sys.setprofile(previous)


class TestRelabelKernel:
    """Both branches of the relabel in ``_reorder_rows``, forced and as chosen, on n rows against the reference."""

    @staticmethod
    def draw_rows(data, n):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        order = list(range(n))
        rng.shuffle(order)

        def row(kind):
            if kind < 4:
                return sum(1 << v for v in rng.sample(range(n), rng.randint(0, n) >> kind))
            return (0, (1 << n) - 1, rng.getrandbits(n))[kind - 4]

        # densities from empty to full, so both sides of the switch occur at every width of 7 or more
        return tuple(row(i % 7) for i in range(n)), order

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_branches_match_reference(self, data):
        n = data.draw(st.sampled_from(RELABEL_WIDTHS))
        rows, order = self.draw_rows(data, n)
        expected = reorder_reference(rows, order)
        assert _reorder_rows(rows, order)[0] == expected
        with pytest.MonkeyPatch.context() as mp, kernel_joins() as joins:
            mp.setattr(matrix01, "_WALK_BITS", -1)  # every row transposed
            mp.setattr(matrix01, "_WALK_COLUMNS_PER_BIT", 1 << 20)
            assert _reorder_rows(rows, order)[0] == expected
        assert len(joins) == (2 if n else 0)  # no rows at width 0, so nothing to transpose
        with pytest.MonkeyPatch.context() as mp, kernel_joins() as joins:
            mp.setattr(matrix01, "_WALK_BITS", n)  # every row walked
            assert _reorder_rows(rows, order)[0] == expected
        assert not joins

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dense_row_counts_match_reference(self, data):
        """1, 2 or all of the n rows dense."""
        n = data.draw(st.sampled_from([w for w in RELABEL_WIDTHS if w > 8]))
        dense = data.draw(st.sampled_from([1, 2, n]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        order = list(range(n))
        rng.shuffle(order)
        limit = matrix01._WALK_BITS + n // matrix01._WALK_COLUMNS_PER_BIT  # most ones a walked row has
        ones = [rng.randint(limit + 1, n) for _ in range(dense)] + [rng.randint(0, limit) for _ in range(n - dense)]
        rows = [sum(1 << v for v in rng.sample(range(n), count)) for count in ones]
        rng.shuffle(rows)
        rows = tuple(rows)
        with kernel_joins() as joins:
            assert _reorder_rows(rows, order)[0] == reorder_reference(rows, order)
        assert len(joins) == 2

    @pytest.mark.parametrize("n", range(9))
    def test_narrow_rows_are_walked(self, n):
        # a census relabels rows of width 8 or less, always by the walk
        order = list(range(n))[::-1]
        rows = (((1 << n) - 1, (1 << n) >> 1, 0) * n)[:n]
        with kernel_joins() as joins:
            assert _reorder_rows(rows, order)[0] == reorder_reference(rows, order)
        assert not joins

    def test_one_transpose_per_call(self):
        order = list(range(400))[::-1]
        for dense in (0, 1, 2, 4):
            rows = [(1 << 400) - 1 - i for i in range(dense)] + [1 << 7, 0, (1 << 41) - 1]
            rows = tuple(rows + [1 << i for i in range(400 - len(rows))])
            with kernel_joins() as joins:
                assert _reorder_rows(rows, order)[0] == reorder_reference(rows, order)
            assert len(joins) == (2 if dense else 0)  # one transpose, or none


class TestReorderRows:
    """The one relabel entry: rows gathered by an order, bits moved by its inverse."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_permute_and_reference(self, data):
        # widths either side of the kernel's dense threshold, which first transposes a full row at 9
        n = data.draw(st.sampled_from([0, 1, 8, 9, 64, 400]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        order = list(range(n))
        rng.shuffle(order)
        # densities from empty to full, so both branches of the kernel occur
        rows = tuple(sum(1 << v for v in rng.sample(range(n), rng.randint(0, n) >> rng.randint(0, 3))) for _ in range(n))
        moved, position = _reorder_rows(rows, order)
        assert [position[v] for v in order] == list(range(n))
        assert sorted(position) == list(range(n))
        assert moved == tuple(relabel_reference(rows[v], position) for v in order)
        assert moved == permute(Matrix01(n, rows), Permutation(tuple(order))).rows


def plain_power(rows, m):
    """A^m by repeated squaring of the whole matrix, without the core peel."""
    return _power((rows, (0,) * len(rows)), m, lambda a, b: _sat_mul_rows(*a, *b))


def exact_power_by_squaring(a, m):
    """Exact integer A^m by binary powering, for exponents where ``exact_power``'s m - 1 products are too slow."""
    n = a.n

    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    result = base = a.to_lists()
    for bit in bin(m)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


PEEL_EXPONENTS = [*range(1, 9), 13, 720721]


class TestCorePeel:
    """``_sat_power_rows`` squares only the core; both planes must match plain squaring."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_plain_power(self, data):
        n = data.draw(st.integers(0, 9))
        rows = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
        zero_rows = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
        zero_cols = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
        column_mask = ~sum(1 << j for j in zero_cols)
        rows = tuple(0 if i in zero_rows else row & column_mask for i, row in enumerate(rows))
        m = data.draw(st.sampled_from(PEEL_EXPONENTS))
        assert _sat_power_rows(rows, m) == plain_power(rows, m)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_functional_core_matches_plain_power(self, data):
        """Cores with at most one core bit per row, powered as an index map."""
        n = data.draw(st.integers(1, 9))
        roles = [data.draw(st.sampled_from("source core sink".split())) for _ in range(n)]
        core = [v for v in range(n) if roles[v] == "core"]
        sources = sum(1 << v for v in range(n) if roles[v] == "source")
        sinks = sum(1 << v for v in range(n) if roles[v] == "sink")
        rows = []
        for role in roles:
            # A source row may hit several core bits, so walks can meet again (2+ entries); a
            # core row has one core bit (a loop, or shared with other rows) or none, plus sink bits.
            if role == "source":
                rows.append(data.draw(st.integers(0, (1 << n) - 1)) & ~sources)
            elif role == "core":
                target = data.draw(st.sampled_from([None, *core]))
                rows.append((0 if target is None else 1 << target) | (data.draw(st.integers(0, (1 << n) - 1)) & sinks))
            else:
                rows.append(0)
        rows = tuple(rows)
        m = data.draw(st.sampled_from(PEEL_EXPONENTS))
        assert _sat_power_rows(rows, m) == plain_power(rows, m)

    @pytest.mark.parametrize(
        "rows",
        [
            (),
            (0,),
            (1,),
            (0b110, 0b100, 0),  # nilpotent: core {1}, whose row has no core bit
            (0b00110, 0b01000, 0b01000, 0b11000, 0),  # core 1, 2 -> 3 -> 3: source 0 reaches 3 and 4 twice
            (0b010, 0b100, 0),  # core {1} with no core bit
            (0b1110, 0b1100, 0b1000, 0),
            Matrix01.cycle(5).rows,  # all core, one map: peeled
            Matrix01.ones(4).rows,  # all core, not a map: squared whole
            (0b0110, 0b1010, 0b1100, 0),  # source 0, sink 3, core {1, 2} with loops
            (0b0110, 0b1000, 0b1000, 0b1000),  # core 1 and 2 both -> 3 -> 3: the walk alone gives (0, 3) = 2+
            (0b1010, 0b1000, 0, 0b1000),  # 1 -> 3 meets the pass-through of 3 -> 3 at (0, 3)
            (0b00010, 0b00100, 0b01000, 0b10010, 0),  # 1 -> 2 -> 3 -> 1, sink 4: every core point moves under f^2
            (0b0010, 0b0100, 0b1000, 0),  # 1 -> 2, which has only a sink arc: f^2(1) = -1, f(1) is live at m = 3
        ],
    )
    def test_fixed_shapes(self, rows):
        for m in PEEL_EXPONENTS:
            assert _sat_power_rows(rows, m) == plain_power(rows, m)

    @pytest.mark.parametrize(
        "rows",
        [
            (0b10, 0),  # empty core with an arc: the map over core points holds its end marks alone
            (0b1100, 0b1000, 0, 0),  # empty core, two sources into two sinks
            (0b110, 0b100, 0),  # one-point core {1}, whose row has no core bit
            (0b110, 0b110, 0),  # one-point core {1} with a loop and a sink arc
            (0b010, 0b010, 0),  # one-point core {1} with a loop and no sink
        ],
    )
    def test_edge_cores(self, rows):
        """Empty and one-point cores, the shortest point maps, against plain squaring and the capped exact power."""
        a = Matrix01(len(rows), rows)
        for m in (*range(3, 8), 720721):
            planes = _sat_power_rows(rows, m)
            assert_planes(planes, a.n)
            assert planes == plain_power(rows, m)
            exact = exact_power(a, m) if m < 8 else exact_power_by_squaring(a, m)
            assert sat_power(a, m) == min2(exact)

    @pytest.mark.parametrize("n, k", [(60, 7), (60, 720721), (240, 7), (240, 720721)])
    def test_member_and_near_miss(self, n, k):
        rng = random.Random(4)
        d = random_decomposition(rng, n, k)
        while not (d.source_count and d.sink_count and d.cycle_total):
            d = random_decomposition(rng, n, k)
        rows = d.original_matrix().rows
        p1, p2 = _sat_power_rows(rows, k)
        assert_planes((p1, p2), n)
        assert (p1, p2) == plain_power(rows, k)
        assert p1 == rows and not any(p2)
        pos = d.sigma.mapping
        u = next(v for v in range(n) if pos[v] < d.source_count)
        t = next(v for v in range(n) if pos[v] >= n - d.sink_count)
        flipped = list(rows)
        flipped[u] ^= 1 << t
        flipped = tuple(flipped)
        q1, q2 = _sat_power_rows(flipped, k)
        assert_planes((q1, q2), n)
        assert (q1, q2) == plain_power(flipped, k)
        assert q1 != flipped or any(q2)

    def test_member_walks_only_live_bits(self, monkeypatch):
        """The one product of a member's power gets only core bits whose f^(k-2)-image has sink arcs."""
        rng = random.Random(240)
        k = 720721
        d = random_decomposition(rng, 240, k)
        while not (d.source_count and d.sink_count and d.cycle_total):
            d = random_decomposition(rng, 240, k)
        rows = d.original_matrix().rows
        has_out = sum(1 << i for i, row in enumerate(rows) if row)
        core = has_out & functools.reduce(operator.or_, rows)
        # f^(k-1) fixes the core of a member, so f^(k-2) is the inverse of f there.
        pred = {(row & core).bit_length() - 1: c for c, row in enumerate(rows) if (core >> c) & 1}
        assert sorted(pred) == [c for c in range(240) if (core >> c) & 1]
        live = sum(1 << c for c, p in pred.items() if rows[p] & ~core)
        assert any(row & core & ~live for row in rows)  # some source-to-core arc is not live
        lefts = []

        def spy(a1, a2, b1, b2):
            lefts.append(a1)
            return _sat_mul_rows(a1, a2, b1, b2)

        monkeypatch.setattr(matrix01, "_sat_mul_rows", spy)
        assert _sat_power_rows(rows, k) == (rows, (0,) * 240)
        assert len(lefts) == 1
        assert all(not bits & ~live for bits in lefts[0])

    def test_partial_permutations_are_peeled(self, monkeypatch):
        """The core of a partial permutation matrix is one index map: one product per power, isolated vertices or not."""
        rng = random.Random(29)
        calls = []

        def spy(*planes):
            calls.append(1)
            return _sat_mul_rows(*planes)

        monkeypatch.setattr(matrix01, "_sat_mul_rows", spy)
        flavors = set()
        for n in [*range(13)] * 4 + [64, 64, 400, 400]:
            image = rng.sample(range(n), n)
            keep = rng.choice((1.0, 0.7))  # dropped arcs leave paths, with sources and sinks
            rows = [1 << image[i] if rng.random() < keep else 0 for i in range(n)]
            for v in rng.sample(range(n), rng.randrange(n + 1) // 3):  # cut every arc at v
                rows = [0 if i == v else row & ~(1 << v) for i, row in enumerate(rows)]
            rows = tuple(rows)
            with_arcs = functools.reduce(operator.or_, rows, 0) | sum(1 << i for i, row in enumerate(rows) if row)
            flavors.add(with_arcs == (1 << n) - 1)
            for m in (3, 4, 7, 13, 720721):
                calls.clear()
                assert _sat_power_rows(rows, m) == plain_power(rows, m)
                assert len(calls) == 1
        assert flavors == {False, True}  # with and without isolated vertices


def batch_cases(rng, n, k, count):
    """``count`` seeded row tuples of order n: random matrices, planted members and one-bit near-misses."""
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        if kind == 0:
            density = rng.choice((0.1, 0.3, 0.6))
            cases.append(tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)))
            continue
        rows = random_decomposition(rng, n, k).original_matrix().rows
        if kind == 2:
            i, j = rng.randrange(n), rng.randrange(n)
            rows = rows[:i] + (rows[i] ^ 1 << j,) + rows[i + 1 :]
        cases.append(rows)
    return cases


def row_route_flags(n, k, cases):
    return sum(is_k_idempotent(Matrix01(n, rows), k) << i for i, rows in enumerate(cases))


class TestLaneBatch:
    """One bit-sliced power over listed matrices agrees bit for bit with the row route."""

    @pytest.mark.parametrize("k", [2, 3, 7, 720721])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_agrees_with_row_route(self, n, k):
        cases = batch_cases(random.Random(100 * n + k % 97), n, k, 65)
        flags = _lanes_k_idempotent(n, k, cases)
        assert flags == row_route_flags(n, k, cases)
        assert all(flags >> i & 1 for i in range(1, 65, 3))  # every planted member
        if n > 1:
            assert flags != (1 << 65) - 1

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 552])
    def test_lane_counts(self, count):
        for n, k in [(3, 2), (10, 7), (12, 720721)]:
            cases = batch_cases(random.Random(count), n, k, count)
            assert _lanes_k_idempotent(n, k, cases) == row_route_flags(n, k, cases)


# Addition and multiplication in the saturating semiring {0, 1, 2+}.
def sat_add(a, b):
    return min(a + b, 2)


def sat_mul(a, b):
    return min(a * b, 2)


class TestSaturating:
    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_scalar_semiring_laws(self, a, b, c):
        assert sat_add(a, b) == sat_add(b, a)
        assert sat_mul(a, b) == sat_mul(b, a)
        assert sat_add(sat_add(a, b), c) == sat_add(a, sat_add(b, c))
        assert sat_mul(sat_mul(a, b), c) == sat_mul(a, sat_mul(b, c))
        assert sat_mul(a, sat_add(b, c)) == sat_add(sat_mul(a, b), sat_mul(a, c))

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_scalar_quotient(self, x, y):
        assert min(x + y, 2) == sat_add(min(x, 2), min(y, 2))
        assert min(x * y, 2) == sat_mul(min(x, 2), min(y, 2))

    def test_sat_power_examples(self):
        assert sat_power(Matrix01.identity(4), 5) == Matrix01.identity(4).to_lists()
        assert sat_power(Matrix01.cycle(3), 3) == Matrix01.identity(3).to_lists()
        ones = Matrix01.ones(2)
        assert sat_power(ones, 3) == [[2, 2], [2, 2]]
        assert exact_power(ones, 3) == [[4, 4], [4, 4]]

    def test_sat_power_of_one_is_identity_map(self):
        for a in all_matrices(2):
            assert sat_power(a, 1) == a.to_lists()

    def test_exhaustive_quotient_small(self):
        # sat_power must equal the capped exact power on every matrix here
        for n in (1, 2, 3):
            for a in all_matrices(n):
                for m in range(1, 7):
                    assert_planes(_sat_power_rows(a.rows, m), n)
                    assert sat_power(a, m) == min2(exact_power(a, m))

    def test_quotient_sampled_n3(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Matrix01(3, tuple(rng.getrandbits(3) for _ in range(3)))
            m = rng.randint(1, 6)
            assert sat_power(a, m) == min2(exact_power(a, m))

    def test_strictly_upper_triangular_nilpotence(self):
        for n in (2, 3, 4):
            positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for bits in range(1 << len(positions)):
                rows = [0] * n
                for t, (i, j) in enumerate(positions):
                    if (bits >> t) & 1:
                        rows[i] |= 1 << j
                assert sat_power(Matrix01(n, tuple(rows)), n) == [[0] * n for _ in range(n)]

    def test_power_validation(self):
        with pytest.raises(ValueError):
            sat_power(Matrix01.zero(1), 0)
        with pytest.raises(ValueError):
            exact_power(Matrix01.zero(1), 0)

    def test_exact_power_overflow(self):
        with pytest.raises(OverflowError):
            exact_power(Matrix01.ones(8), 22)


class TestTextFormat:
    def test_round_trip(self):
        for a in [Matrix01(0, ()), Matrix01.identity(3), Matrix01.cycle(4), Matrix01.ones(2)]:
            assert from_text(to_text(a)) == a

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_all_widths(self, data):
        width = data.draw(st.integers(0, 70))
        row = data.draw(st.integers(0, (1 << width) - 1))
        text = _write_rows([row], width)
        assert text == "".join(str((row >> j) & 1) for j in range(width)) + "\n"
        assert _read_rows(text, 1, width) == (row,)
        rows = tuple(data.draw(st.integers(0, (1 << width) - 1)) for _ in range(width))
        a = Matrix01(width, rows)
        assert from_text(to_text(a)) == a

    @pytest.mark.parametrize("text", ["", "0", "01", "0_1", "+01", " 01", "01 ", "0２1", "0١1"])
    def test_parse_row_rejects(self, text):
        assert _read_rows(text + "\n", 1, 3) is None

    def test_exact_text(self):
        assert to_text(Matrix01.from_lists([[0, 1], [0, 0]])) == "2\n01\n00\n"
        assert to_text(Matrix01(0, ())) == "0\n"

    @pytest.mark.parametrize(
        "text",
        [
            "2\n01\n00",  # missing trailing newline
            "2\n01\n\n",  # short row
            "2\n01\n000\n",  # long row
            "2\n01\n00\n\n",  # extra blank line
            "2\n01\n02\n",  # bad character
            "02\n01\n00\n",  # leading zero in order
            "x\n",  # order not a number
            "1\n",  # missing row
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            from_text(text)

    @pytest.mark.parametrize("n", [1, 5, 100])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda row: row[:-1],  # short
            lambda row: row + "0",  # long
            *(lambda row, c=c: c + row[1:] for c in "2_+ \r١"),
            *(lambda row, c=c: row[:-1] + c for c in "2_+ \r١"),
        ],
    )
    def test_bad_row_message_equals_row_by_row_parse(self, n, bad):
        rng = random.Random(n)
        lines = [str(n), *(_write_rows([rng.getrandbits(n)], n)[:-1] for _ in range(n))]
        for i in {1, n // 2 + 1, n}:
            broken = lines[:i] + [bad(lines[i])] + lines[i + 1 :]
            first = next(j for j, line in enumerate(broken[1:]) if _read_rows(line + "\n", 1, n) is None)
            with pytest.raises(MatrixFormatError) as info:
                from_text("\n".join(broken) + "\n")
            assert str(info.value) == f"bad row on line {first + 2}"


def line_walk_to_text(a):
    """The matrix text rendered one row at a time, each row reversed on its own."""
    return "\n".join([str(a.n), *(format(row, f"0{a.n}b")[::-1] for row in a.rows)]) + "\n"


def line_walk_from_text(text):
    """The matrix text parsed line by line, the reference for the one-block reader.

    Faults are named in the order the reader must name them: the final
    newline, the order line, the line count, then the first bad row.
    """
    if not text.endswith("\n"):
        raise MatrixFormatError("matrix text must end with a newline")
    lines = text[:-1].split("\n")
    n = _parse_decimal(lines[0], "order line", MatrixFormatError)
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} row lines, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if len(line) != n or not set(line) <= {"0", "1"}:
            raise MatrixFormatError(f"bad row on line {i + 2}")
        rows.append(int(line[::-1] or "0", 2))
    return Matrix01(n, tuple(rows))


class TestRowBlockCodec:
    """The one-block renderer and reader against the line walk they replace."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_orders_0_to_12(self, data):
        n = data.draw(st.integers(0, 12))
        a = Matrix01(n, tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)))
        text = to_text(a)
        assert text == line_walk_to_text(a)
        assert from_text(text) == a

    @pytest.mark.parametrize("seed", range(6))
    def test_corruptions_fail_as_the_line_walk_does(self, seed):
        rng = random.Random(seed)
        for n in [*range(13), 40]:
            a = Matrix01(n, tuple(rng.getrandbits(n) for _ in range(n)))
            for text in corrupted_texts(rng, to_text(a), 60):
                assert outcome(from_text, text) == outcome(line_walk_from_text, text), repr(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "0" * 4999 + "\n",  # an order beyond int()'s digit limit
            "2\n0_1\n00\n", "2\n+1\n00\n", "2\n 1\n00\n", "2\n1\r\n00\n", "2\n01\n0\u0661\n", "2\n01\n0\udce9\n",
            "2\n01\n00\n\n", "2\n0100\n\n", "0\n\n", "0\n", "1\n", "3\n000\n000\n",
        ],
    )
    def test_edge_texts_fail_as_the_line_walk_does(self, text):
        assert outcome(from_text, text) == outcome(line_walk_from_text, text)
