"""The digraph of a 0-1 matrix: arc (i, j) when entry (i, j) is 1.

Entry (i, j) of the exact power A^m counts the walks of length m from i
to j, so :func:`exact_power` is checked against a listing of vertex
sequences. The closure and component helpers of ``conftest`` are the
reference that certifies the structural route; they are checked here on
hand-made digraphs.
"""

import random
from itertools import product

import pytest

from conftest import reach, strong_components
from kidempotent.matrix01 import Matrix01, exact_power, sat_power


def walks_by_enumeration(rows, length):
    """Count walks by listing vertex sequences; the reference for exact_power."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for seq in product(range(n), repeat=length + 1):
        if all((rows[seq[t]] >> seq[t + 1]) & 1 for t in range(length)):
            out[seq[0]][seq[-1]] += 1
    return out


def random_rows(rng, n):
    return tuple(rng.getrandbits(n) for _ in range(n))


class TestSccs:
    def test_cycle(self):
        assert strong_components(Matrix01.cycle(3).rows) == [((0, 1, 2), "cycle")]

    def test_upper_triangular_singletons(self):
        a = Matrix01.from_lists([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert strong_components(a.rows) == [((2,), "acyclic"), ((1,), "acyclic"), ((0,), "acyclic")]

    def test_all_ones_is_non_cycle(self):
        assert strong_components(Matrix01.ones(2).rows) == [((0, 1), "non-cycle")]

    def test_self_loop_is_cycle_of_length_one(self):
        assert strong_components((1,)) == [((0,), "cycle")]

    def test_order_is_reverse_topological(self):
        # arcs must go from later-listed components to earlier-listed ones
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = random_rows(rng, n)
            comps = strong_components(rows)
            position = {v: idx for idx, (vertices, _) in enumerate(comps) for v in vertices}
            for u in range(n):
                for v in range(n):
                    if (rows[u] >> v) & 1 and position[u] != position[v]:
                        assert position[u] > position[v]
            assert sorted(position) == list(range(n))

    def test_tie_break_smallest_vertex(self):
        # two isolated vertices are incomparable; order by smallest index
        assert [c for c, _ in strong_components(Matrix01.zero(3).rows)] == [(0,), (1,), (2,)]

    def test_cycle_components_have_unit_degrees(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = random_rows(rng, n)
            for vertices, kind in strong_components(rows):
                if kind == "cycle":
                    mask = sum(1 << v for v in vertices)
                    indeg = {v: 0 for v in vertices}
                    for v in vertices:
                        assert (rows[v] & mask).bit_count() == 1
                        indeg[(rows[v] & mask).bit_length() - 1] += 1
                    assert all(c == 1 for c in indeg.values())


class TestCountWalks:
    def test_length_one_is_adjacency(self):
        a = Matrix01.from_lists([[0, 1], [1, 1]])
        assert exact_power(a, 1) == a.to_lists()

    def test_cycle_returns_identity(self):
        assert exact_power(Matrix01.cycle(3), 3) == Matrix01.identity(3).to_lists()

    def test_complete_with_loops(self):
        a = Matrix01.ones(2)
        expected = walks_by_enumeration(a.rows, 2)
        assert expected == [[2, 2], [2, 2]]
        assert exact_power(a, 2) == expected

    def test_against_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = random_rows(rng, n)
            length = rng.randint(1, 4)
            assert exact_power(Matrix01(n, rows), length) == walks_by_enumeration(rows, length)

    def test_additivity(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = Matrix01(n, random_rows(rng, n))
            p = rng.randint(1, 3)
            q = rng.randint(1, 3)
            wp = exact_power(a, p)
            wq = exact_power(a, q)
            prod = [[sum(wp[i][t] * wq[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
            assert exact_power(a, p + q) == prod

    def test_matches_sat_power(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = Matrix01(n, random_rows(rng, n))
            length = rng.randint(1, 6)
            capped = [[min(v, 2) for v in row] for row in exact_power(a, length)]
            assert capped == sat_power(a, length)

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            exact_power(Matrix01.zero(1), 0)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            exact_power(Matrix01.ones(6), 26)


class TestHasPath:
    """``reach``: the walks of length >= 1 that the component reference rests on."""

    def test_disjoint_blocks(self):
        closure = reach(Matrix01.from_lists([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).rows)
        assert closure == [0b011, 0b011, 0]

    def test_single_arc(self):
        assert reach(Matrix01.from_lists([[0, 1], [0, 0]]).rows) == [0b10, 0]

    def test_requires_length_at_least_one(self):
        # a vertex does not reach itself without an arc
        assert reach(Matrix01.zero(2).rows) == [0, 0]
        assert reach((1,)) == [1]

    def test_transitive(self):
        assert reach(Matrix01.from_lists([[0, 1, 0], [0, 0, 1], [0, 0, 0]]).rows) == [0b110, 0b100, 0]
