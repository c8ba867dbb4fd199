import random
from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kidempotent.matrix01 import (
    ArgumentRangeError,
    Matrix01,
    Permutation,
    _lane_cols,
    _lane_mul,
    _power,
    _sat_mul_rows,
    exact_power,
    nnz,
    sat_power,
)
from kidempotent.oracle import (
    _lane_patterns,
    _sat_member_lanes,
    census,
    censuses,
    enumerate_k_idempotent,
    matrix_from_index,
    serialize_census,
    structural_count,
)
from kidempotent import cli, matrix01, oracle, structure
from kidempotent.extremal import ExtremalParams, _family_matrices, construct_extremal, family_line, is_extremal
from kidempotent.structure import (
    allowed_boundary_counts,
    compose,
    decompose,
    gamma,
    is_k_idempotent,
    power_failure,
)

GOLDEN = Path(__file__).parent / "golden" / "k_idempotent_counts.txt"
GOLDEN_N5 = Path(__file__).parent / "golden" / "k_idempotent_counts_n5.txt"

LANE_KS = [2, 3, 4, 5, 6, 7, 13, 720721]


def exact_members(n, k):
    """Independent membership route: naive exact integer powering."""
    out = []
    for index in range(1 << (n * n)):
        a = matrix_from_index(n, index)
        if exact_power(a, k) == a.to_lists():
            out.append(a)
    return out


class TestEnumeration:
    def test_index_encoding(self):
        # bit j of the index is entry (j div n, j mod n)
        a = matrix_from_index(2, 0b0110)
        assert a.to_lists() == [[0, 1], [1, 0]]
        assert matrix_from_index(3, 1).to_lists()[0] == [1, 0, 0]
        with pytest.raises(ValueError):
            matrix_from_index(1, 2)

    def test_counts_small(self):
        assert sum(1 for _ in enumerate_k_idempotent(1, 2)) == 2
        assert sum(1 for _ in enumerate_k_idempotent(2, 2)) == 8
        assert sum(1 for _ in enumerate_k_idempotent(2, 3)) == 9
        assert sum(1 for _ in enumerate_k_idempotent(0, 2)) == 1

    def test_members_match_exact_route(self):
        for n in (1, 2):
            for k in (2, 3, 4):
                assert list(enumerate_k_idempotent(n, k)) == exact_members(n, k)

    def test_order_one_members(self):
        members = list(enumerate_k_idempotent(1, 2))
        assert members == [Matrix01.zero(1), Matrix01.from_lists([[1]])]

    def test_partitioned_equals_serial(self):
        serial = list(enumerate_k_idempotent(3, 3))
        merged = []
        bounds = [0, 97, 97, 300, 450, 1 << 9]
        for start, stop in zip(bounds, bounds[1:]):
            merged.extend(enumerate_k_idempotent(3, 3, index_range=(start, stop)))
        assert merged == serial

    def test_argument_checks(self):
        # the ignored keyword opens no order above 5
        with pytest.raises(ValueError):
            list(enumerate_k_idempotent(6, 2, allow_order_5=True))
        with pytest.raises(ValueError):
            list(enumerate_k_idempotent(2, 1))
        with pytest.raises(ValueError):
            list(enumerate_k_idempotent(2, 2, index_range=(3, 100_000)))


def scalar_members(n, k, start, stop):
    """Single-matrix power route over an index range."""
    matrices = (matrix_from_index(n, index) for index in range(start, stop))
    return [a for a in matrices if is_k_idempotent(a, k)]


def slice_bases(rng, count):
    """``count`` aligned 2**10-index order-5 slices; the popcounts of their
    15 high bits are evenly spaced quantiles of Binomial(15, 1/2)."""
    cumulative = list(accumulate(comb(15, c) for c in range(16)))
    bases = []
    for i in range(count):
        ones = bisect_left(cumulative, (i + 0.5) / count * 2**15)
        bases.append(sum(1 << b for b in rng.sample(range(15), ones)) << 10)
    return bases


SLICE_FULL = (1 << 1024) - 1


def slice_planes(base):
    """The 25 entry planes of the aligned 2**10-index order-5 slice at ``base``."""
    return [*_lane_patterns(10), *(SLICE_FULL if (base >> e) & 1 else 0 for e in range(10, 25))]


def whole_power_mask(base, k):
    """The member lanes of an order-5 slice from the whole lane power, every row of every product."""
    a = slice_planes(base)
    p1, p2 = _power((a, [0] * 25), k, lambda x, y: _lane_mul(x, _lane_cols(y, 5), 5))
    return SLICE_FULL & ~reduce(or_, [(q1 ^ e) | q2 for e, q1, q2 in zip(a, p1, p2)])


def lane_mul_rows(monkeypatch, call):
    """``call()`` and the row count of each :func:`_lane_mul` product it made."""
    rows, lane_mul = [], matrix01._lane_mul

    def count(a, right, n):
        rows.append(len(a[0]) // n)
        return lane_mul(a, right, n)

    monkeypatch.setattr(matrix01, "_lane_mul", count)
    try:
        return call(), rows
    finally:
        monkeypatch.undo()


# The k in 2..33 at which order 5 chains the fixed rows: k - 1 one-row
# products cost no more than the squarings of A^(k // 2)
CHAINED_KS = {*range(4, 17), *range(18, 24), 26, 30, 31}


class TestLaneKernel:
    def test_lane_patterns(self):
        for width in range(7):
            patterns = _lane_patterns(width)
            assert len(patterns) == width
            for b, pattern in enumerate(patterns):
                assert pattern == sum(1 << x for x in range(1 << width) if (x >> b) & 1)

    def test_product_equals_row_product_per_lane(self):
        # lanes hold unrelated saturating matrices; a side without twos
        # has zero ge2 planes, and entries zero in every lane make whole
        # planes zero, which the product skips
        rng = random.Random(11)
        for twos in [(True, True), (True, False), (False, True), (False, False)]:
            for n in range(6):
                lanes = 64
                zero = [{e for e in range(n * n) if rng.random() < 0.3} for _ in range(2)]
                pairs = []
                for _ in range(lanes):
                    pair = []
                    for side in range(2):
                        keep = [sum(1 << j for j in range(n) if i * n + j not in zero[side]) for i in range(n)]
                        ge1 = tuple(rng.getrandbits(n) & keep[i] for i in range(n))
                        ge2 = tuple(row & rng.getrandbits(n) if twos[side] else 0 for row in ge1)
                        pair.append((ge1, ge2))
                    pairs.append(pair)

                def planes(side, level):
                    return [
                        sum(((pairs[x][side][level][e // n] >> (e % n)) & 1) << x for x in range(lanes))
                        for e in range(n * n)
                    ]

                right = _lane_cols((planes(1, 0), planes(1, 1)), n)
                c1, c2 = _lane_mul((planes(0, 0), planes(0, 1)), right, n)
                # the ge2 identity of the kernel needs ge2 inside ge1 in
                # every factor, so every product must keep it
                assert all(q2 & ~q1 == 0 for q1, q2 in zip(c1, c2))
                for x, ((a1, a2), (b1, b2)) in enumerate(pairs):
                    r1, r2 = _sat_mul_rows(a1, a2, b1, b2)
                    for e in range(n * n):
                        assert (c1[e] >> x) & 1 == (r1[e // n] >> (e % n)) & 1
                        assert (c2[e] >> x) & 1 == (r2[e // n] >> (e % n)) & 1

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_mask_equals_scalar_route(self, data):
        n = data.draw(st.integers(0, 5), label="n")
        k = data.draw(st.sampled_from(LANE_KS), label="k")
        width = data.draw(st.integers(0, min(n * n, 8)), label="width")
        base = data.draw(st.integers(0, (1 << (n * n - width)) - 1), label="block") << width
        mask = _sat_member_lanes(n, k, base, width)
        assert 0 <= mask < 1 << (1 << width)
        for x in range(1 << width):
            assert (mask >> x) & 1 == is_k_idempotent(matrix_from_index(n, base + x), k), (n, k, base + x)

    @pytest.mark.parametrize("k", [2, 7, 16, 17, 720721])
    def test_mask_equals_scalar_route_on_2_10_lanes(self, k):
        # the width of a benchmark slice; seeded high bits with one to
        # three ones leave members in two of the three blocks, and at
        # k = 7 and 16 a block with no member ends within its chained rows
        rng = random.Random(3)
        bases = [sum(1 << b for b in rng.sample(range(10, 25), ones)) for ones in (1, 2, 3, 6)]
        members = 0
        for base in bases:
            mask = _sat_member_lanes(5, k, base, 10)
            members += mask.bit_count()
            for x in range(1 << 10):
                assert (mask >> x) & 1 == is_k_idempotent(matrix_from_index(5, base + x), k), (k, base + x)
        assert members > 0

    def test_power_stops_once_every_lane_failed(self, monkeypatch):
        bases = slice_bases(random.Random(27), 64)
        for k, taken in [(2, 98), (7, 684), (720721, 9504)]:
            masks, rows = lane_mul_rows(monkeypatch, lambda: [_sat_member_lanes(5, k, base, 10) for base in bases])
            assert masks == [whole_power_mask(base, k) for base in bases], k
            assert any(masks), k
            # binary powering takes k.bit_length() - 1 squarings and
            # k.bit_count() - 1 products by A, of 5 rows each
            assert sum(rows) < len(bases) * 5 * (k.bit_length() + k.bit_count() - 2), (k, sum(rows))
            # rows taken; at k = 7 the fixed rows are chained
            assert sum(rows) == taken, (k, sum(rows))

    @pytest.mark.parametrize("k", [*range(2, 34), 61, 720721])
    def test_chained_rows_equal_whole_power(self, monkeypatch, k):
        # high bits with one or two ones often leave members, and the slice
        # of the identity holds one at every k: there the chained rows do
        # not end the block, and rows of A^h follow
        rng = random.Random(k)
        bases = slice_bases(rng, 16) + [sum(1 << b for b in rng.sample(range(10, 25), ones)) for ones in (1, 1, 2, 2)]
        bases.append(1 << 12 | 1 << 18 | 1 << 24)
        masks, rows = lane_mul_rows(monkeypatch, lambda: [_sat_member_lanes(5, k, base, 10) for base in bases])
        unchained, unchained_rows = lane_mul_rows(
            monkeypatch, lambda: [matrix01._lane_flags(slice_planes(base), k, 5, SLICE_FULL, 25) for base in bases]
        )
        assert masks == unchained == [whole_power_mask(base, k) for base in bases], k
        assert any(masks), k
        # with no fixed row the kernel chains none, so the products differ only where the rule chains
        assert (rows != unchained_rows) == (k in CHAINED_KS), k

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_unaligned_ranges_equal_scalar_filter(self, data):
        n = data.draw(st.integers(0, 5), label="n")
        k = data.draw(st.sampled_from(LANE_KS), label="k")
        size = 1 << (n * n)
        start = data.draw(st.integers(0, size), label="start")
        stop = data.draw(st.integers(start, min(size, start + 3000)), label="stop")
        found = list(enumerate_k_idempotent(n, k, index_range=(start, stop)))
        assert found == scalar_members(n, k, start, stop)

    def test_edges(self):
        assert list(enumerate_k_idempotent(0, 2)) == [Matrix01(0, ())]
        assert list(enumerate_k_idempotent(0, 2, index_range=(0, 0))) == []
        assert list(enumerate_k_idempotent(0, 2, index_range=(1, 1))) == []
        assert list(enumerate_k_idempotent(3, 2, index_range=(200, 200))) == []
        # one-index ranges: the order-4 identity is a member; the all-ones
        # matrices of order 2 and 5 are not
        identity = sum(1 << (i * 4 + i) for i in range(4))
        assert list(enumerate_k_idempotent(4, 7, index_range=(identity, identity + 1))) == [Matrix01.identity(4)]
        assert list(enumerate_k_idempotent(2, 2, index_range=(15, 16))) == []
        last = (1 << 25) - 1
        assert list(enumerate_k_idempotent(5, 2, index_range=(last, last + 1))) == []


def unpruned_members(n, k):
    """All 2**(n*n) indices decided by one lane power, with no node test."""
    return [matrix_from_index(n, x) for x in unpruned_indices(n, k, 0, 1 << (n * n), n * n)]


def unpruned_indices(n, k, start, stop, d):
    """The members in [start, stop), by one lane power per aligned block of 2**d indices."""
    out = []
    for base in range(start >> d << d, stop, 1 << d):
        mask = _sat_member_lanes(n, k, base, d)
        out += [base + x for x in range(1 << d) if (mask >> x) & 1 and start <= base + x < stop]
    return out


def matrix_index(a):
    return sum(row << (i * a.n) for i, row in enumerate(a.rows))


class TestPrunedSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pruned_node_has_no_member(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        k = data.draw(st.sampled_from(LANE_KS), label="k")
        d = data.draw(st.integers(0, min(n * n - 1, 8)), label="d")
        base = data.draw(st.integers(1, (1 << (n * n - d)) - 1), label="node") << d
        if oracle._excluded(n, k, base, d):
            assert _sat_member_lanes(n, k, base, d) == 0, (n, k, base, d)

    def test_prunes_two_cycle(self):
        # B has the arcs 0->1 and 1->0 decided and (0, 0) open: B^2 = I
        # puts a 1 on the decided 0 at (1, 1)
        assert oracle._excluded(2, 2, 0b0110, 1)
        assert not oracle._excluded(2, 3, 0b0110, 1)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_full_range_equals_unpruned_route(self, monkeypatch, get_census, k):
        # an order-5 member from the golden census, fetched before the leaves shrink;
        # seeded so that every range below prunes a node
        rng = random.Random(10 + k)
        five = matrix_index(rng.choice(get_census(5, k).argmax))
        # 16-lane leaves make the search test and prune nodes at n = 3, 4
        monkeypatch.setattr(oracle, "_LANE_BITS", 4)
        for n in range(5):
            assert list(enumerate_k_idempotent(n, k)) == unpruned_members(n, k), (n, k)
        fours = [matrix_index(a) for a in rng.sample(unpruned_members(4, k), 2)]
        verdicts = []
        excluded = oracle._excluded

        def record(*node):
            verdicts.append(excluded(*node))
            return verdicts[-1]

        monkeypatch.setattr(oracle, "_excluded", record)
        # (n, lane bits, start, stop): unaligned ranges at n = 3 and 4 with
        # 16-lane leaves, and a window of about 2**13 indices centred on an
        # order-5 member with 2**10-lane leaves
        ranges = [(3, 4, rng.randrange(1, 128), rng.randrange(385, 512))]
        ranges += [(4, 4, x - half, x + half) for x, half in zip(fours, [1 << 9, 1 << 12])]
        ranges.append((5, 10, five - (1 << 12), five + (1 << 12)))
        for n, lane_bits, start, stop in ranges:
            start, stop = max(0, start - rng.randrange(64)), min(1 << (n * n), stop + rng.randrange(64))
            monkeypatch.setattr(oracle, "_LANE_BITS", lane_bits)
            verdicts.clear()
            found = [matrix_index(a) for a in enumerate_k_idempotent(n, k, index_range=(start, stop))]
            assert found == unpruned_indices(n, k, start, stop, min(n * n, 13)), (n, k, start, stop)
            # the range exercised both a pruned node and a leaf with a member
            assert found and any(verdicts), (n, k, start, stop, len(found))

    def test_vetted_leaves_chain_no_row(self, monkeypatch):
        # every leaf of a full order-5 sweep is a node of 2**_LANE_BITS
        # indices, so none chains a row: the products of the power that
        # builds A^3 first, with the golden member count
        members, rows = lane_mul_rows(monkeypatch, lambda: sum(1 for _ in oracle._member_blocks(5, 7, 0, 2**25)))
        assert (members, sum(rows)) == (21702, 5436)


class TestOrderFive:
    def test_golden_counts(self):
        # One line through the public stream; it builds a Matrix01 per
        # member, 189,528 over all twelve lines. test_census_text[5-*] pins
        # all twelve counts through census, on the same power route.
        line = GOLDEN_N5.read_text().splitlines()[0]
        n, k, expected = (int(v) for v in line.split())
        assert (n, k) == (5, 2)
        assert sum(1 for _ in enumerate_k_idempotent(n, k)) == expected


def golden_lines():
    lines = GOLDEN.read_text().splitlines() + GOLDEN_N5.read_text().splitlines()
    return [tuple(int(v) for v in line.split()) for line in lines]


# argmax_count of census(n, k) on every golden line
ARGMAX_COUNTS = {
    3: {2: 12, 3: 18, 4: 12, 5: 18, 6: 12, 7: 18},
    4: {2: 92, 3: 176, 4: 108, 5: 176, 6: 92, 7: 192, 13: 192, 61: 192, 721: 192, 720721: 192},
    5: {2: 170, 3: 350, 4: 210, 5: 350, 6: 170, 7: 390, 11: 350, 13: 390, 16: 210, 21: 350, 31: 390, 61: 390},
}

# Labeled argmax counts beyond the census orders, at k = 2, 3 and 7 (ROADMAP item 33's table)
ARGMAX_TABLE = {
    6: {2: 1_510, 3: 3_940, 7: 4_980},
    7: {2: 2_730, 3: 7_560, 7: 9_800},
    8: {2: 27_132, 3: 98_952, 7: 145_992},
    9: {2: 48_762, 3: 188_622, 7: 284_382},
    10: {2: 540_204},
}


def argmax_closed_form(n, k):
    """Order-n matrices of gamma(n) ones with A^k = A, counted from the two families, by neither route.

    Variant A has c sources in ``allowed_boundary_counts(n)``, each with an arc to all m core
    points, and one arc into each of the s = n - c - m sinks: n!/(c! m! s!) pi_k(m) m^s matrices,
    where pi_k(m) counts the core permutations whose cycle lengths divide k - 1. Variant B, the
    transpose, has as many. A matrix in both has m = 1 and an allowed c and s, so the count is
    2|A| - |A & B|. At orders 1 and 2 an allowed count can be 0, and the families overlap in more
    ways (the form gives 6 where the count is 5 at n = 2, k = 2), so they are left out.
    """
    lengths = [d for d in range(1, n + 1) if (k - 1) % d == 0]
    perms = [1]
    for m in range(1, n + 1):
        perms.append(sum(comb(m - 1, d - 1) * factorial(d - 1) * perms[m - d] for d in lengths if d <= m))
    allowed = allowed_boundary_counts(n)

    def placements(c, m):
        return factorial(n) // (factorial(c) * factorial(m) * factorial(n - c - m))

    one = sum(placements(c, m) * perms[m] * m ** (n - c - m) for c in allowed for m in range(1, n - c + 1))
    both = sum(placements(c, 1) for c in allowed if n - c - 1 in allowed)
    return 2 * one - both


@pytest.mark.parametrize(
    "n, k, expected",
    [(n, k, count) for table in (ARGMAX_COUNTS, ARGMAX_TABLE) for n in table for k, count in table[n].items()],
)
def test_argmax_closed_form(n, k, expected):
    assert argmax_closed_form(n, k) == expected


class TestCandidates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_census_certifies_exactly_the_members_in_index_order(self, monkeypatch, n):
        # no structural pass over every index: each k's members are certified as they stream
        ks = (2, 6) if n == 5 else (3,)
        seen = []
        canonical_form = oracle._canonical_form

        def record(rows, k):
            seen.append((k, rows))
            return canonical_form(rows, k)

        monkeypatch.setattr(oracle, "_canonical_form", record)
        reports = censuses(n, ks)
        monkeypatch.undo()
        assert seen == [(k, a.rows) for k in ks for a in enumerate_k_idempotent(n, k)]
        assert [r.total_k_idempotent for r in reports] == [structural_count(n, k) for k in ks]
        if n == 5:
            assert [r.total_k_idempotent for r in reports] == [5682, 5706]

    @pytest.mark.parametrize("n,k,total", golden_lines())
    def test_census_text(self, get_census, n, k, total):
        g = gamma(n)
        assert serialize_census(get_census(n, k)) == (
            f"n={n}\nk={k}\ntotal_k_idempotent={total}\ngamma={g}\nmax_nnz={g}\n"
            f"argmax_count={ARGMAX_COUNTS[n][k]}\nmax_density_ok=true\ncharacterization_ok=true\n"
            "upper_triangular_ok=true\nmismatches=0\n"
        )

    def test_member_that_does_not_rebuild_is_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(oracle, "_build_rows", lambda *blocks: ())
        report = census(3, 2)
        assert report.mismatches == tuple(enumerate_k_idempotent(3, 2))
        assert not report.characterization_ok

    @pytest.mark.parametrize("n,k,total,distinct", [(3, 7, 76, 25), (4, 2, 452, 68)])
    def test_rebuild_runs_once_per_distinct_block_data(self, monkeypatch, n, k, total, distinct):
        # members with equal blocks have equal canonical rows, so one
        # _build_rows call serves them all
        calls = []
        build_rows = oracle._build_rows

        def record(*blocks):
            calls.append(blocks)
            return build_rows(*blocks)

        monkeypatch.setattr(oracle, "_build_rows", record)
        report = census(n, k)
        assert (report.total_k_idempotent, report.mismatches) == (total, ())
        blocks = {structure._blocks(*oracle._canonical_form(a.rows, k)[0]) for a in enumerate_k_idempotent(n, k)}
        assert len(calls) == len(set(calls)) == len(blocks) == distinct
        assert set(calls) == blocks

    def test_mismatches_merge_in_index_order(self, monkeypatch):
        # one member whose rebuild fails and one argmax member the
        # structural route rejects: each is reported once, in ascending
        # index order, and the rejected member still counts toward the
        # density maximum. A non-member the structural route accepts is
        # not visited by the census; TestIdempotencyIndex in
        # tests/test_structure.py plants one.
        clean = census(3, 2)
        members = [x for x in range(512) if is_k_idempotent(matrix_from_index(3, x), 2)]
        canonical_form = oracle._canonical_form
        # The census rebuilds each distinct block data once, so the failed
        # rebuild is planted on block data that only the broken member has:
        # planted on shared blocks it would fail every member that has them.
        blocks_of = {x: structure._blocks(*canonical_form(oracle._index_rows(3, x), 2)[0]) for x in members}
        shared = Counter(blocks_of.values())
        broken = next(x for x in members if x and x.bit_count() < 4 and shared[blocks_of[x]] == 1)
        rejected = max(x for x in members if x.bit_count() == 4)
        assert broken < rejected
        rows_of = {x: oracle._index_rows(3, x) for x in (broken, rejected)}
        build_rows = oracle._build_rows

        def patched_build(*blocks):
            if blocks == blocks_of[broken]:
                return ()
            return build_rows(*blocks)

        def patched_form(rows, k):
            return None if rows == rows_of[rejected] else canonical_form(rows, k)

        monkeypatch.setattr(oracle, "_canonical_form", patched_form)
        monkeypatch.setattr(oracle, "_build_rows", patched_build)
        report = census(3, 2)
        assert report.mismatches == tuple(Matrix01(3, rows_of[x]) for x in (broken, rejected))
        assert not report.characterization_ok
        assert report.total_k_idempotent == clean.total_k_idempotent
        assert (report.max_nnz, report.argmax) == (clean.max_nnz, clean.argmax)
        assert Matrix01(3, rows_of[rejected]) in report.argmax
        assert not report.max_density_ok


def corrupt_corner(r, m, s, rows):
    if r and s:
        return (rows[0] ^ 1 << (r + m), *rows[1:])


def corrupt_cycle_row(r, m, s, rows):
    if m >= 2:
        return (*rows[:r], rows[r] | ((1 << m) - 1) << r, *rows[r + 1 :])


def corrupt_sink_row(r, m, s, rows):
    if s:
        return (*rows[:-1], rows[-1] | 1)


def corrupt_source_row(r, m, s, rows):
    if r:
        return (rows[0] | 1, *rows[1:])


class TestEveryBlockCompared:
    """A member whose canonical rows differ from its composed blocks anywhere is a mismatch.

    The census keeps one rebuild verdict per canonical form, so a corrupted
    member is caught also when members before it have its block sizes.
    """

    @staticmethod
    def corrupted_census(monkeypatch, corrupt, k, later):
        """census(3, k) with the canonical rows of one member corrupted: the
        first member ``corrupt`` applies to, or with ``later`` the first such
        member whose (r, cycle_lengths) an earlier member already had.
        Returns the report, the corrupted members and the sizes met before it."""
        canonical_form = oracle._canonical_form
        corrupted = []
        sizes = []

        def corrupt_one(rows, k):
            form = canonical_form(rows, k)
            if form is None or corrupted:
                return form
            (r, lengths, canonical_rows), to_canonical = form
            seen = (r, lengths) in sizes
            sizes.append((r, lengths))
            bad = corrupt(r, sum(lengths), 3 - r - sum(lengths), canonical_rows)
            if bad is None or (later and not seen):
                return form
            corrupted.append(Matrix01(3, rows))
            return (r, lengths, bad), to_canonical

        monkeypatch.setattr(oracle, "_canonical_form", corrupt_one)
        return census(3, k), corrupted, sizes[:-1]

    @pytest.mark.parametrize("corrupt", [corrupt_corner, corrupt_cycle_row, corrupt_sink_row, corrupt_source_row])
    @pytest.mark.parametrize("k", [2, 3])
    def test_corrupted_block(self, monkeypatch, corrupt, k):
        report, corrupted, _ = self.corrupted_census(monkeypatch, corrupt, k, later=False)
        assert len(corrupted) == 1
        assert report.mismatches == tuple(corrupted)
        assert not report.characterization_ok

    @pytest.mark.parametrize("corrupt", [corrupt_corner, corrupt_cycle_row, corrupt_sink_row, corrupt_source_row])
    @pytest.mark.parametrize("k", [2, 3])
    def test_corrupted_member_after_its_block_sizes(self, monkeypatch, corrupt, k):
        report, corrupted, before = self.corrupted_census(monkeypatch, corrupt, k, later=True)
        assert len(corrupted) == 1
        monkeypatch.undo()
        key = oracle._canonical_form(corrupted[0].rows, k)[0]
        assert key[:2] in before
        assert report.mismatches == tuple(corrupted)
        assert not report.characterization_ok


class TestArgmaxObjects:
    @pytest.mark.parametrize("n,k", [(3, 2), (3, 7), (4, 3)])
    def test_permutations_only_for_argmax(self, monkeypatch, n, k):
        # a census builds no Permutation and decides the shape once per distinct
        # argmax form, on its blocks; the argmax forms build decompositions that
        # reproduce the argmax matrices
        built = []
        post_init = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(p) or post_init(p))
        shapes = []
        fits = oracle._fits_maximum_form
        monkeypatch.setattr(oracle, "_fits_maximum_form", lambda *blocks: shapes.append(blocks) or fits(*blocks))
        report = census(n, k)
        assert report.max_density_ok
        assert built == []
        monkeypatch.undo()
        keys = dict.fromkeys(structure._canonical_form(a.rows, k)[0] for a in report.argmax)
        assert len(keys) < len(report.argmax)
        assert shapes == [structure._blocks(*key) for key in keys]
        assert [decompose(a, k).original_matrix() for a in report.argmax] == list(report.argmax)

    @pytest.mark.parametrize("k", [2, 7])
    def test_one_argmax_form_out_of_shape_fails_density(self, monkeypatch, k):
        # every member is certified and rebuilt, but the blocks of one argmax form,
        # not the first met, fit neither variant: the density check fails
        keys = list(dict.fromkeys(structure._canonical_form(a.rows, k)[0] for a in census(3, k).argmax))
        assert len(keys) > 1
        refused = structure._blocks(*keys[-1])
        fits = oracle._fits_maximum_form
        monkeypatch.setattr(oracle, "_fits_maximum_form", lambda *blocks: blocks != refused and fits(*blocks))
        report = census(3, k)
        assert report.characterization_ok
        assert not report.max_density_ok


# n = 6, 7 at k = 2..7 from the formula; at n = 6 the pruned power route
# gives 96,608 at k = 2 and 626,263 at k = 7 over all 2^36 matrices
COUNTS_N6 = [96_608, 405_863, 309_208, 491_813, 105_824, 626_263]
COUNTS_N7 = [2_185_738, 13_991_266, 11_545_858, 20_413_906, 3_935_626, 24_917_356]


class TestStructuralCount:
    @pytest.mark.parametrize(
        "n,k,expected",
        golden_lines()
        + [(n, k, None) for n in range(3) for k in range(2, 8)]
        + [(5, 721, 22_686), (5, 720721, 22_686)]
        + [(6, k, c) for k, c in zip(range(2, 8), COUNTS_N6)]
        + [(7, k, c) for k, c in zip(range(2, 8), COUNTS_N7)],
    )
    def test_count(self, n, k, expected):
        if expected is None:
            expected = len(exact_members(n, k))
        assert structural_count(n, k) == expected

    def test_rejects(self):
        with pytest.raises(ValueError):
            structural_count(3, 1)
        with pytest.raises(ValueError):
            structural_count(-1, 2)


class TestCountClosesTheCensus:
    """Only the count proves that no non-member is a canonical form."""

    def test_wrong_count_fails(self, monkeypatch, capsys):
        count = oracle.structural_count
        monkeypatch.setattr(oracle, "structural_count", lambda n, k: count(n, k) + 1)
        for n in (3, 4, 5):
            report = census(n, 2)
            assert not report.characterization_ok, n
            assert report.mismatches == (), n
            assert cli.main(["census", "--n", str(n), "--k", "2"]) == 1
            assert "characterization_ok=false\n" in capsys.readouterr().out, n


class TestCharacterization:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (3, 4)])
    def test_ok_small(self, get_census, n, k):
        if n == 0:
            # the census starts at order 1; the empty matrix is the one member
            (empty,) = enumerate_k_idempotent(0, k)
            assert decompose(empty, k).original_matrix() == empty
            return
        report = get_census(n, k)
        assert report.characterization_ok
        assert report.mismatches == ()

    def test_total_matches_enumeration(self, get_census):
        assert get_census(3, 3).total_k_idempotent == sum(1 for _ in enumerate_k_idempotent(3, 3))


class TestStructuralRejection:
    """A member the structural route rejects is reported, not raised."""

    @staticmethod
    def reject(monkeypatch, rejected):
        form = oracle._canonical_form
        monkeypatch.setattr(oracle, "_canonical_form", lambda rows, k: None if rows == rejected else form(rows, k))

    def test_member_is_one_mismatch(self, monkeypatch):
        self.reject(monkeypatch, (0, 0))
        report = census(2, 2)
        assert not report.characterization_ok
        assert report.mismatches.count(Matrix01(2, (0, 0))) == 1

    def test_argmax_member_fails_density(self, monkeypatch):
        self.reject(monkeypatch, (3, 0))
        report = census(2, 2)
        assert Matrix01(2, (3, 0)) in report.argmax
        assert not report.max_density_ok

    def test_cli_exits_one(self, monkeypatch, capsys):
        self.reject(monkeypatch, (0, 0))
        assert cli.main(["census", "--n", "2", "--k", "2"]) == 1
        assert "characterization_ok=false\n" in capsys.readouterr().out


class TestMaxNnzCensus:
    def test_small_values(self, get_census):
        report = get_census(3, 2)
        assert report.max_nnz == 4
        assert all(nnz(m) == 4 for m in report.argmax)
        report = get_census(1, 2)
        assert report.max_nnz == 1
        assert report.argmax == (Matrix01.from_lists([[1]]),)

    def test_order_four(self, get_census):
        assert get_census(4, 3).max_nnz == 6

    def test_rejects_order_zero(self, get_census):
        with pytest.raises(ValueError):
            get_census(0, 2).max_nnz


class TestUpperTriangular:
    # test_criterion_4_upper_triangular_lemma reads all of n = 1..5, k = 2..7
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 5), (5, 7), (0, 2), (1, 3)])
    def test_only_zero_passes(self, get_census, n, k):
        if n == 0:
            # the census starts at order 1; order 0 has no nonzero matrix
            assert list(enumerate_k_idempotent(0, k)) == [Matrix01(0, ())]
            return
        assert get_census(n, k).upper_triangular_ok

    def test_planted_member_fails_the_census(self, monkeypatch, capsys):
        # a census that tested no member for the lemma would still report
        # true: the power route now also accepts index 2, entry (0, 1)
        # alone, in the one block of order 3
        lanes = oracle._sat_member_lanes
        monkeypatch.setattr(oracle, "_sat_member_lanes", lambda *args: lanes(*args) | 1 << 2)
        assert census(3, 2).upper_triangular_ok is False
        assert cli.main(["census", "--n", "3", "--k", "2"]) == 1
        assert "upper_triangular_ok=false\n" in capsys.readouterr().out


class TestCensus:
    def test_census_report_fields(self, get_census):
        report = get_census(3, 2)
        assert report.total_k_idempotent == 50
        assert report.max_nnz == 4 == report.gamma_value
        assert report.argmax_count == 12
        assert report.characterization_ok
        assert report.upper_triangular_ok
        assert report.max_density_ok
        assert report.mismatches == ()

    def test_serialization_golden(self):
        assert serialize_census(census(2, 2)) == (
            "n=2\n"
            "k=2\n"
            "total_k_idempotent=8\n"
            "gamma=2\n"
            "max_nnz=2\n"
            "argmax_count=5\n"
            "max_density_ok=true\n"
            "characterization_ok=true\n"
            "upper_triangular_ok=true\n"
            "mismatches=0\n"
        )

    def test_determinism(self):
        first = serialize_census(census(3, 2))
        second = serialize_census(census(3, 2))
        assert first == second

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            census(0, 2)


# Exponent sets of one censuses call per order: every golden k of orders 3 and 4, in an order
# other than ascending, and a repeated k.
CENSUS_SETS = {
    1: (7, 2, 5, 3),
    2: (3, 2, 7, 4, 6, 5),
    3: (7, 2, 6, 3, 5, 4, 2),
    4: (720721, 2, 61, 3, 13, 4, 721, 5, 7, 6),
    5: (3, 2),
}


class TestCensuses:
    @pytest.mark.parametrize("n", sorted(CENSUS_SETS))
    def test_each_report_equals_the_one_exponent_census(self, n):
        ks = CENSUS_SETS[n]
        reports = censuses(n, ks)
        alone = [census(n, k) for k in ks]
        assert [(r.k, serialize_census(r), r.argmax) for r in reports] == [
            (k, serialize_census(r), r.argmax) for k, r in zip(ks, alone)
        ]
        assert reports == alone


class TestWalkAgreement:
    def test_seeded_sample(self):
        # saturating powers agree with capped walk counts on random digraphs
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(0, 6)
            a = Matrix01(n, tuple(rng.getrandbits(n) if n else 0 for _ in range(n)))
            k = rng.randint(2, 6)
            capped = [[min(v, 2) for v in row] for row in exact_power(a, k)]
            assert capped == sat_power(a, k)


# Every argument rule of the library, one call that breaks it.
ARGUMENT_RULES = {
    "power_failure k": lambda: power_failure(Matrix01.cycle(3), 1),
    "decompose k": lambda: decompose(Matrix01.cycle(3), 1),
    "compose k": lambda: compose(0, (1,), 0, [], [[]], 1),
    "is_extremal k": lambda: is_extremal(Matrix01.cycle(3), 0),
    "enumerate_k_idempotent negative order": lambda: list(enumerate_k_idempotent(-1, 2)),
    "enumerate_k_idempotent order above limit": lambda: list(enumerate_k_idempotent(6, 2)),
    "enumerate_k_idempotent index range": lambda: list(enumerate_k_idempotent(2, 2, index_range=(3, 100_000))),
    "enumerate_k_idempotent non-int index range": lambda: list(enumerate_k_idempotent(2, 2, index_range=(0.0, 16))),
    "enumerate_k_idempotent index range of three": lambda: list(enumerate_k_idempotent(2, 2, index_range=(0, 1, 2))),
    "enumerate_k_idempotent index range of one": lambda: list(enumerate_k_idempotent(2, 2, index_range=(0,))),
    "enumerate_k_idempotent int index range": lambda: list(enumerate_k_idempotent(2, 2, index_range=5)),
    "matrix_from_index index": lambda: matrix_from_index(1, 2),
    "matrix_from_index negative order": lambda: matrix_from_index(-1, 0),
    "matrix_from_index non-int index": lambda: matrix_from_index(2, 3.0),
    "sat_power power": lambda: sat_power(Matrix01.cycle(3), 0),
    "exact_power power": lambda: exact_power(Matrix01.cycle(3), 0),
    "Matrix01.cycle order 0": lambda: Matrix01.cycle(0),
    "census order 0": lambda: census(0, 2),
    "census k": lambda: census(3, 1),
    "census order above limit": lambda: census(6, 2),
    "census non-int order": lambda: census(3.0, 2),
    "censuses no exponent": lambda: censuses(3, ()),
    "censuses one bad k among good ones": lambda: censuses(3, (2, 3, 1, 4)),
    "censuses order above limit": lambda: censuses(6, (2, 3)),
    "structural_count negative order": lambda: structural_count(-1, 2),
    "structural_count k": lambda: structural_count(3, 1),
    "structural_count non-int order": lambda: structural_count(3.0, 2),
    "gamma order 0": lambda: gamma(0),
    "gamma non-int order": lambda: gamma(3.0),
    "allowed_boundary_counts order 0": lambda: allowed_boundary_counts(0),
    "allowed_boundary_counts non-int order": lambda: allowed_boundary_counts(3.0),
    "_family_matrices order 0": lambda: _family_matrices(0, 2),
    "_family_matrices non-int order": lambda: _family_matrices(3.0, 2),
    "_family_matrices k": lambda: _family_matrices(3, 1),
    "construct_extremal order 0": lambda: construct_extremal(0, 2, ExtremalParams("A", 0, 0, (1,), ())),
    "family_line order 0": lambda: family_line(0, 2, ExtremalParams("A", 0, 0, (1,), ())),
    # True == 1 and False == 0, but a bool order or index is refused like any other non-int
    "census bool order": lambda: census(True, 2),
    "censuses bool order": lambda: censuses(True, (2, 3)),
    "enumerate_k_idempotent bool order": lambda: list(enumerate_k_idempotent(True, 2)),
    "enumerate_k_idempotent bool index range": lambda: list(enumerate_k_idempotent(1, 2, index_range=(False, True))),
    "matrix_from_index bool order": lambda: matrix_from_index(True, 1),
    "matrix_from_index bool index": lambda: matrix_from_index(1, True),
    "structural_count bool order": lambda: structural_count(True, 2),
    "gamma bool order": lambda: gamma(True),
    "allowed_boundary_counts bool order": lambda: allowed_boundary_counts(True),
    "Matrix01.cycle bool order": lambda: Matrix01.cycle(True),
    "sat_power bool power": lambda: sat_power(Matrix01.cycle(3), True),
    "sat_power float power": lambda: sat_power(Matrix01.cycle(3), 2.0),
    "exact_power bool power": lambda: exact_power(Matrix01.cycle(3), True),
    "exact_power float power": lambda: exact_power(Matrix01.cycle(3), 2.0),
    "Matrix01 bool order": lambda: Matrix01(True, (1,)),
    "Matrix01 float order": lambda: Matrix01(2.0, (1, 1)),
    "ExtremalParams bool size": lambda: ExtremalParams("A", True, 1, (1,), (0,)),
    "ExtremalParams float size": lambda: ExtremalParams("A", 1.0, 1, (1,), (0,)),
}


@pytest.mark.parametrize("call", ARGUMENT_RULES.values(), ids=ARGUMENT_RULES.keys())
def test_argument_rules_raise_argument_range_error(call):
    # A ValueError subclass, so callers that catch ValueError keep working.
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ArgumentRangeError)
