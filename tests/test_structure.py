import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import count, product, repeat
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORDER_KS,
    all_matrices,
    block_power,
    corrupted_texts,
    index_certificate_failure,
    outcome,
    random_decomposition,
    relabel_reference,
    strong_components,
)
from kidempotent import structure
from kidempotent.matrix01 import (
    ArgumentRangeError,
    Matrix01,
    Permutation,
    _parse_decimal,
    _sat_mul_rows,
    exact_power,
    nnz,
    permute,
    unpack_row,
)
from kidempotent.oracle import _member_blocks
from kidempotent.structure import (
    _analyze_rows,
    _blocks,
    _canonical_form,
    _check_header,
    CanonicalDecomposition,
    CycleLengthInvalid,
    DecompositionFormatError,
    ProductNotZeroOne,
    StructureError,
    StructureErrorKind,
    compose,
    decompose,
    idempotency_index,
    is_k_idempotent,
    parse_decomposition,
    power_failure,
    serialize_decomposition,
)


class TestIsKIdempotent:
    def test_zero_matrix(self):
        for k in range(2, 8):
            assert is_k_idempotent(Matrix01.zero(3), k)
            assert is_k_idempotent(Matrix01(0, ()), k)

    def test_cycle_divisibility(self):
        c3 = Matrix01.cycle(3)
        assert is_k_idempotent(c3, 4)
        assert not is_k_idempotent(c3, 3)

    def test_all_ones(self):
        assert not is_k_idempotent(Matrix01.ones(2), 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            is_k_idempotent(Matrix01.zero(1), 1)

    def test_matches_exact_power_exhaustively(self):
        for n in (1, 2, 3):
            for a in all_matrices(n):
                for k in (2, 3):
                    expected = exact_power(a, k) == a.to_lists()
                    assert is_k_idempotent(a, k) == expected


class TestPowerFailure:
    def test_none_on_members(self):
        assert power_failure(Matrix01.identity(2), 2) is None

    def test_not_zero_one(self):
        failure = power_failure(Matrix01.ones(2), 2)
        assert failure.kind is StructureErrorKind.NOT_ZERO_ONE
        assert failure.witness == (0, 0)

    def test_power_mismatch(self):
        failure = power_failure(Matrix01.cycle(2), 2)
        assert failure.kind is StructureErrorKind.POWER_MISMATCH
        assert failure.witness == (0, 0)

    def test_witness_tracks_actual_power(self):
        # the same structural failure can be either kind, depending on k
        a = Matrix01.from_lists([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
        at2 = decompose(a, 2)
        at3 = decompose(a, 3)
        assert at2.kind is StructureErrorKind.POWER_MISMATCH
        assert at3.kind is StructureErrorKind.NOT_ZERO_ONE
        assert at2.witness == at3.witness == (0, 2)


class TestDecompose:
    def test_worked_example(self):
        a = Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]])
        d = decompose(a, 2)
        assert isinstance(d, CanonicalDecomposition)
        assert (d.source_count, d.cycle_lengths, d.sink_count) == (1, (1,), 1)
        assert d.source_to_cycle == (1,)
        assert d.cycle_to_sink == (1,)
        assert d.source_to_sink() == (1,)
        assert d.sigma.mapping == (0, 1, 2)

    def test_pure_cycle(self):
        d = decompose(Matrix01.cycle(2), 3)
        assert (d.source_count, d.cycle_lengths, d.sink_count) == (0, (2,), 0)
        assert d.source_to_cycle == ()
        assert d.cycle_to_sink == (0, 0)

    def test_not_zero_one(self):
        result = decompose(Matrix01.ones(2), 2)
        assert isinstance(result, StructureError)
        assert result.kind is StructureErrorKind.NOT_ZERO_ONE
        assert result.witness == (0, 0)

    def test_rejection_with_a_matching_power_raises(self, monkeypatch):
        # the guard for a structural rejection that the power route does not confirm
        monkeypatch.setattr(structure, "power_failure", lambda a, k: None)
        with pytest.raises(RuntimeError, match="^structural rejection of a matrix whose power matches$"):
            decompose(Matrix01.ones(2), 2)

    def test_isolated_vertices_are_sinks(self):
        for k in (2, 5):
            d = decompose(Matrix01.zero(2), k)
            assert (d.source_count, d.cycle_lengths, d.sink_count) == (0, (), 2)

    def test_order_zero(self):
        d = decompose(Matrix01(0, ()), 2)
        assert (d.source_count, d.cycle_lengths, d.sink_count) == (0, (), 0)
        assert d.original_matrix() == Matrix01(0, ())

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            decompose(Matrix01.zero(1), 1)

    def test_normalization_orders_cycles(self):
        # two cycles: a 2-cycle on {2, 4} and a loop at 3, plus source 0, sink 1
        a = Matrix01.from_lists(
            [
                [0, 1, 1, 1, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1],
                [0, 1, 1, 0, 0],
                [0, 0, 1, 0, 0],
            ]
        )
        # vertex 3 has in- and out-arcs but no loop: structure must reject
        assert isinstance(decompose(a, 3), StructureError)
        b = Matrix01.from_lists(
            [
                [0, 1, 1, 1, 0],
                [0, 0, 0, 0, 0],
                [0, 1, 0, 0, 1],
                [0, 0, 0, 1, 0],
                [0, 1, 1, 0, 0],
            ]
        )
        d = decompose(b, 3)
        assert isinstance(d, CanonicalDecomposition)
        assert d.cycle_lengths == (1, 2)
        # canonical order: source 0, loop 3, 2-cycle (2, 4), sink 1
        assert d.sigma.mapping == (0, 4, 2, 1, 3)
        assert permute(d.canonical_matrix(), d.sigma) == b

    def test_round_trip_exhaustive_small(self):
        for n in (0, 1, 2, 3):
            for a in all_matrices(n):
                for k in (2, 3, 4):
                    d = decompose(a, k)
                    member = is_k_idempotent(a, k)
                    assert isinstance(d, CanonicalDecomposition) == member
                    if member:
                        assert d.original_matrix() == a
                        again = decompose(d.original_matrix(), k)
                        assert serialize_decomposition(again) == serialize_decomposition(d)

    def test_idempotent_case(self):
        d = decompose(Matrix01.identity(2), 2)
        assert (d.source_count, d.cycle_lengths, d.sink_count) == (0, (1, 1), 0)
        d = decompose(Matrix01.from_lists([[1, 1], [0, 0]]), 2)
        assert (d.source_count, d.cycle_lengths, d.sink_count) == (0, (1,), 1)
        assert d.cycle_to_sink == (1,)
        failure = decompose(Matrix01.cycle(2), 2)
        assert isinstance(failure, StructureError)
        assert failure.kind is StructureErrorKind.POWER_MISMATCH

    def test_idempotent_cycles_all_unit(self):
        for a in all_matrices(3):
            d = decompose(a, 2)
            if isinstance(d, CanonicalDecomposition):
                assert all(length == 1 for length in d.cycle_lengths)


def digraph_certification(a):
    """The digraph statement of the canonical form, rule by rule.

    A transcription through :func:`conftest.strong_components`, which
    computes the components from their definition, independent of
    ``_analyze_rows``. Returns (sources, cycle vertex sets, sinks), or
    None when a rule fails:

    - every strongly connected component is a bare vertex or a plain cycle;
    - every non-cycle vertex has only out-arcs (a source) or only in-arcs
      (a sink); isolated vertices count as sinks;
    - no arc joins two distinct cycles;
    - for every source u and sink w, the number of cycle vertices c with
      arcs u -> c and pred(c) -> w (entry (u, w) of X P^T Y) equals the
      arc bit (u, w).
    """
    n = a.n

    def arc(i, j):
        return (a.rows[i] >> j) & 1

    cycles, trivial = [], []
    for vertices, kind in strong_components(a.rows):
        if kind == "non-cycle":
            return None
        (cycles if kind == "cycle" else trivial).append(vertices)
    sources, sinks = [], []
    for (v,) in trivial:
        has_in = any(arc(u, v) for u in range(n))
        has_out = any(arc(v, w) for w in range(n))
        if has_in and has_out:
            return None
        (sources if has_out else sinks).append(v)
    cycle_of = {v: i for i, cycle in enumerate(cycles) for v in cycle}
    if any(arc(v, w) for v in cycle_of for w in cycle_of if cycle_of[v] != cycle_of[w]):
        return None
    pred = {c: next(p for p in cycles[cycle_of[c]] if arc(p, c)) for c in cycle_of}
    for u in sources:
        for w in sinks:
            if sum(arc(u, c) & arc(pred[c], w) for c in cycle_of) != arc(u, w):
                return None
    return sorted(sources), {frozenset(cycle) for cycle in cycles}, sorted(sinks)


def analysis_slices(result):
    """An accepted ``_analyze_rows`` result, (order, r, cycle_lengths), cut into (sources, orbits, sinks).

    ``order`` is sliced by r and then by each cycle length; the orbits are tuples.
    """
    order, r, cycle_lengths = result
    orbits = []
    start = r
    for length in cycle_lengths:
        orbits.append(tuple(order[start : start + length]))
        start += length
    return order[:r], orbits, order[start:]


def certification(a):
    """``_analyze_rows`` in the shape of :func:`digraph_certification`."""
    result = _analyze_rows(a.rows, a.n)
    if result is None:
        return None
    sources, orbits, sinks = analysis_slices(result)
    return sources, {frozenset(orbit) for orbit in orbits}, sinks


@st.composite
def planted_matrices(draw):
    """A permutation planted on a random core, with sources, sinks, X, Y,
    a corner that is exact half the time, and up to three flipped entries."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    c = draw(st.integers(0, n))
    r = draw(st.integers(0, n - c))
    core, sources, sinks = order[:c], order[c : c + r], order[c + r :]
    core_mask = sum(1 << v for v in core)
    sink_mask = sum(1 << v for v in sinks)
    rows = [0] * n
    pred = {}
    for v, w in zip(core, draw(st.permutations(core))):
        rows[v] = (1 << w) | (draw(st.integers(0, (1 << n) - 1)) & sink_mask)
        pred[w] = v
    for u in sources:
        x = draw(st.integers(0, (1 << n) - 1)) & core_mask
        corner = 0
        for v in core:
            if (x >> v) & 1:
                corner |= rows[pred[v]] & sink_mask
        if not draw(st.booleans()):
            corner = draw(st.integers(0, (1 << n) - 1)) & sink_mask
        rows[u] = x | corner
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            rows[i] ^= 1 << j
    return Matrix01(n, tuple(rows))


class TestDigraphReference:
    """The permutation-core certification against the digraph statement."""

    @settings(max_examples=400, deadline=None)
    @given(planted_matrices())
    def test_planted(self, a):
        assert certification(a) == digraph_certification(a)

    @settings(max_examples=300, deadline=None)
    @given(planted_matrices())
    def test_planted_index(self, a):
        reference = digraph_certification(a)
        if reference is None:
            assert idempotency_index(a) is None
        else:
            assert idempotency_index(a) == lcm(*(len(cycle) for cycle in reference[1])) + 1

    @settings(max_examples=300, deadline=None)
    @given(planted_matrices())
    def test_planted_decomposition_rebuilds(self, a):
        k = idempotency_index(a)
        if k is not None:
            d = decompose(a, k)
            assert isinstance(d, CanonicalDecomposition)
            assert d.original_matrix() == a

    def test_exhaustive_small(self):
        # order 4 is all 65,536 matrices, so every rejection path of the walk is met
        for n in (0, 1, 2, 3, 4):
            for a in all_matrices(n):
                assert certification(a) == digraph_certification(a)

    @pytest.mark.parametrize("n, flips", [(100, 4), (400, 1)])
    def test_seeded_large_members_and_corner_flips(self, n, flips):
        # k - 1 = lcm(1..16). Each member is certified and relabeled; members are drawn
        # until ``flips`` of them have a corner, and one corner bit of each is flipped.
        rng = random.Random(n)
        while flips:
            a = random_decomposition(rng, n, 720721).original_matrix()
            analysis = _analyze_rows(a.rows, n)
            assert certification(a) == digraph_certification(a)
            order, r, cycle_lengths = analysis
            assert _canonical_form(a.rows, n, 720721)[0][2] == permute(a, Permutation(order)).rows
            sources, sinks = order[:r], order[r + sum(cycle_lengths) :]
            if sources and sinks:
                u, w = rng.choice(sources), rng.choice(sinks)
                b = Matrix01(n, a.rows[:u] + (a.rows[u] ^ (1 << w),) + a.rows[u + 1 :])
                assert certification(b) == digraph_certification(b)
                flips -= 1

    @pytest.mark.parametrize(
        "lists",
        [
            # loops at 0 and 1 joined by the arc 0 -> 1
            [[1, 1], [0, 1]],
            # 0 -> 1 -> 2: core vertex 1 has no out-arc into the core
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            # 3 -> 0 -> 1 with a loop at 1: 0 and 1 share their core successor
            [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
            # source 0 reaches sink 3 through the loops at 1 and 2: corner entry 2
            [[0, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]],
            # source 0 -> loop 1 -> sink 2, but no arc 0 -> 2: corner mismatch
            [[0, 1, 0], [0, 1, 1], [0, 0, 0]],
        ],
        ids=["cross-cycle-arc", "core-exit-only", "shared-successor", "corner-two", "corner-mismatch"],
    )
    def test_rejection_paths(self, lists):
        a = Matrix01.from_lists(lists)
        assert _analyze_rows(a.rows, a.n) is None
        assert digraph_certification(a) is None
        assert not any(is_k_idempotent(a, k) for k in range(2, 8))

    @settings(max_examples=300, deadline=None)
    @given(planted_matrices())
    def test_planted_order(self, a):
        check_analysis_order(a)

    def test_exhaustive_order(self):
        for n in (0, 1, 2, 3, 4):
            for a in all_matrices(n):
                check_analysis_order(a)

    @pytest.mark.parametrize(
        "lists,expected",
        [
            # source 0 -> loop 1, and 0 -> sink 2 with no Y to carry it
            ([[0, 1, 1], [0, 1, 0], [0, 0, 0]], None),
            ([[0, 1, 0], [0, 1, 0], [0, 0, 0]], ([0, 1, 2], 1, (1,))),
            # source 0 -> 2-cycle 1 <-> 2, and 0 -> sink 3 with Y = 0
            ([[0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], None),
            ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], ([0, 1, 2, 3], 1, (2,))),
            # no core at all: source 0 -> sink 3
            ([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], None),
        ],
        ids=["n3-sink-bit", "n3-core-only", "n4-sink-bit", "n4-core-only", "n4-no-core"],
    )
    def test_zero_corner(self, lists, expected):
        # no core point's predecessor has a sink bit, so X P^T Y = 0 and a
        # source row may reach no sink
        a = Matrix01.from_lists(lists)
        assert _analyze_rows(a.rows, a.n) == expected
        assert (digraph_certification(a) is None) == (expected is None)
        assert is_k_idempotent(a, 3) == (expected is not None)


def check_analysis_order(a):
    """The order of an accepted ``_analyze_rows`` result, which the set comparison drops.

    Sources and sinks are ascending, each orbit starts at its smallest
    vertex and follows arcs, and the orbits are sorted by (length,
    smallest vertex).
    """
    result = _analyze_rows(a.rows, a.n)
    if result is None:
        return
    sources, orbits, sinks = analysis_slices(result)
    assert sources == sorted(sources)
    assert sinks == sorted(sinks)
    for orbit in orbits:
        assert orbit[0] == min(orbit)
        for v, w in zip(orbit, orbit[1:] + orbit[:1]):
            assert (a.rows[v] >> w) & 1
    assert orbits == sorted(orbits, key=lambda o: (len(o), o[0]))


def naive_corner(lengths, x_rows, y_rows, s):
    """X P^T Y by integer sums, unmasked: (packed corner rows, entries of 2 or more).

    Column c of X meets the Y row of c's cycle predecessor. The entries
    of 2 or more are listed in row-major order, in coordinates of the
    composed matrix; the packed rows hold the corner only when there are
    none.
    """
    r, m = len(x_rows), sum(lengths)
    pred = []
    offset = 0
    for length in lengths:
        pred.extend(offset + (t - 1) % length for t in range(length))
        offset += length
    corner = [
        [sum((x_rows[i] >> c) & (y_rows[pred[c]] >> j) & 1 for c in range(m)) for j in range(s)] for i in range(r)
    ]
    big = [(i, r + m + j) for i in range(r) for j in range(s) if corner[i][j] >= 2]
    return tuple(sum(v << j for j, v in enumerate(row)) for row in corner), big


class TestCompose:
    def test_worked_example(self):
        m = compose(1, [1], 1, [[1]], [[1]], 2)
        assert m == Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]])
        assert nnz(m) == 4

    def test_product_not_zero_one(self):
        with pytest.raises(ProductNotZeroOne) as info:
            compose(1, [1, 1], 1, [[1, 1]], [[1], [1]], 2)
        assert info.value.witness == (0, 3)

    def test_cycle_length_invalid(self):
        with pytest.raises(CycleLengthInvalid):
            compose(0, [2], 0, [], [[], []], 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(1, [1], 0, [], [[]], 2)
        with pytest.raises(ValueError):
            compose(0, [2], 0, [], [[]], 3)
        with pytest.raises(ValueError):
            compose(1, [1], 1, [[1, 0]], [[1]], 2)
        with pytest.raises(ValueError, match="cycle block row width mismatch"):
            compose(0, (1,), 1, [], [[1, 0]], 2)
        with pytest.raises(ValueError, match=r"^entry 1\.0 is not 0 or 1$"):
            compose(0, (1,), 1, [], [[1.0]], 2)

    def test_derived_corner_checks_widths(self):
        # an X row wider than the cycle total is refused when built, not clipped
        with pytest.raises(ValueError, match="exceeds cycle width"):
            CanonicalDecomposition(3, 2, 1, (1,), 1, (0b11,), (1,), Permutation.identity(3))

    def test_composed_matrices_are_k_idempotent(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(0, 9)
            k = rng.randint(2, 7)
            d = random_decomposition(rng, n, k)
            m = d.canonical_matrix()
            assert is_k_idempotent(m, k)

    def test_closed_form_power(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(2, 8)
            k = rng.randint(2, 7)
            d = random_decomposition(rng, n, k)
            h = d.canonical_matrix()
            for m in range(2, 7):
                assert exact_power(h, m) == block_power(d, m)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corner_product_agrees(self, data):
        lengths = data.draw(st.lists(st.integers(1, 4), max_size=3))
        r = data.draw(st.integers(0, 3))
        s = data.draw(st.integers(0, 3))
        m = sum(lengths)
        x_rows = tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in range(r))
        y_rows = tuple(data.draw(st.integers(0, (1 << s) - 1)) for _ in range(m))
        k = lcm(*lengths) + 1
        corner, big = naive_corner(lengths, x_rows, y_rows, s)
        d = CanonicalDecomposition(
            n=r + m + s,
            k=k,
            source_count=r,
            cycle_lengths=tuple(lengths),
            sink_count=s,
            source_to_cycle=x_rows,
            cycle_to_sink=y_rows,
            sigma=Permutation.identity(r + m + s),
        )
        args = (r, lengths, s, [unpack_row(v, m) for v in x_rows], [unpack_row(v, s) for v in y_rows], k)
        if big:
            with pytest.raises(ProductNotZeroOne) as composed:
                compose(*args)
            with pytest.raises(ProductNotZeroOne) as derived:
                d.source_to_sink()
            assert composed.value.witness == derived.value.witness == big[0]
        else:
            h = compose(*args)
            assert d.source_to_sink() == corner
            assert [h.rows[i] >> (r + m) for i in range(r)] == list(d.source_to_sink())

    def test_sparse_y_corner_and_witness(self):
        """The builder masks X to the core points after a nonzero Y row; the naive sum does not."""
        rng = random.Random(29)
        seen = set()
        for _ in range(300):
            lengths = [rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 6))]
            m, r, s = sum(lengths), rng.randint(1, 5), rng.randint(1, 4)
            y_rows = [0] * m
            for c in rng.sample(range(m), min(m, 2)):
                y_rows[c] = rng.getrandbits(s)
            x_rows = tuple(rng.getrandbits(m) for _ in range(r))
            d = CanonicalDecomposition(
                n=r + m + s,
                k=lcm(*lengths) + 1,
                source_count=r,
                cycle_lengths=tuple(lengths),
                sink_count=s,
                source_to_cycle=x_rows,
                cycle_to_sink=tuple(y_rows),
                sigma=Permutation.identity(r + m + s),
            )
            corner, big = naive_corner(lengths, x_rows, y_rows, s)
            if big:
                with pytest.raises(ProductNotZeroOne) as derived:
                    d.source_to_sink()
                with pytest.raises(ProductNotZeroOne) as composed:
                    d.canonical_matrix()
                assert derived.value.witness == composed.value.witness == big[0]
                seen.add("witness")
            else:
                assert d.source_to_sink() == corner
                assert tuple(row >> (r + m) for row in d.canonical_matrix().rows[:r]) == corner
                seen.add("corner")
        assert seen == {"witness", "corner"}

    def test_intermediate_power_may_exceed_one(self):
        # corner product is 0-1 here, yet H^2 contains an exact 2
        h = compose(1, [3], 1, [[1, 1, 0]], [[1], [1], [0]], 4)
        assert is_k_idempotent(h, 4)
        assert max(max(row) for row in exact_power(h, 2)) == 2
        assert exact_power(h, 4) == h.to_lists()


def two_gather_blocks(rows, n):
    """X and Y as two separate gathers read them, before the one relabel.

    Each source row cut to the core, and each cycle row whole, is
    relabeled into canonical order and shifted down to its block.
    """
    order, r, cycle_lengths = _analyze_rows(rows, n)
    shift = r + sum(cycle_lengths)
    to_canonical = [0] * n
    for pos, v in enumerate(order):
        to_canonical[v] = pos
    core = sum(1 << v for v in order[r:shift])
    x_rows = tuple(relabel_reference(rows[u] & core, to_canonical) >> r for u in order[:r])
    y_rows = tuple(relabel_reference(rows[v], to_canonical) >> shift for v in order[r:shift])
    return x_rows, y_rows


def check_canonical_form(a, k):
    """_canonical_form against the power route, permute and the two-gather blocks."""
    form = _canonical_form(a.rows, a.n, k)
    assert (form is not None) == is_k_idempotent(a, k)
    if form is None:
        return
    key, to_canonical = form
    r, lengths, s, x_rows, y_rows = _blocks(*key)
    canonical_rows = key[2]
    assert sorted(to_canonical) == list(range(a.n))
    analysis = _analyze_rows(a.rows, a.n)
    order = analysis[0]
    sources, orbits, sinks = analysis_slices(analysis)
    assert [to_canonical[v] for v in order] == list(range(a.n))
    assert canonical_rows == permute(a, Permutation(order)).rows
    assert (r, lengths, s) == (len(sources), tuple(map(len, orbits)), len(sinks))
    assert (x_rows, y_rows) == two_gather_blocks(a.rows, a.n)


class TestRebuild:
    """The rebuild equals permuting the composed canonical matrix by sigma.

    Each rebuilt member also goes through :func:`check_canonical_form`.
    """

    @staticmethod
    def check(d):
        a = d.original_matrix()
        assert a == Matrix01(d.n, permute(d.canonical_matrix(), d.sigma).rows)
        check_canonical_form(a, d.k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(2, 13), st.integers(0, 2**32))
    def test_random_decompositions(self, n, k, seed):
        self.check(random_decomposition(random.Random(seed), n, k))

    @staticmethod
    def planted(rng, r, lengths, s):
        """Random X; one 1 a Y column, at a random cycle row, keeps the corner 0-1."""
        m = sum(lengths)
        mapping = list(range(r + m + s))
        rng.shuffle(mapping)
        y_rows = [0] * m
        for col in range(s if m else 0):
            y_rows[rng.randrange(m)] |= 1 << col
        return CanonicalDecomposition(
            n=r + m + s,
            k=lcm(*lengths) + 1,
            source_count=r,
            cycle_lengths=tuple(lengths),
            sink_count=s,
            source_to_cycle=tuple(rng.getrandbits(m) if m else 0 for _ in range(r)),
            cycle_to_sink=tuple(y_rows),
            sigma=Permutation(tuple(mapping)),
        )

    @pytest.mark.parametrize(
        "r, lengths, s",
        [(0, (), 0), (1, (), 0), (0, (1,), 0), (0, (), 1), (2, (1, 2), 0), (0, (1, 2), 3), (0, (3,), 0), (2, (), 3)],
    )
    def test_empty_blocks(self, r, lengths, s):
        self.check(self.planted(random.Random(31), r, lengths, s))

    @pytest.mark.parametrize("n", [200, 400, 1000])
    def test_dense_orders(self, n):
        rng = random.Random(n)
        lengths = []
        while sum(lengths) < n // 2:
            lengths.append(rng.choice([1, 2, 3, 4, 5, 6, 8, 16]))
        self.check(self.planted(rng, n // 4, lengths, n - n // 4 - sum(lengths)))

    def test_one_dense_row(self):
        # One source at order 400: its row is the only one with more than 8 + n/12 ones, so
        # decompose and original_matrix each relabel by a transpose of that row alone.
        rng = random.Random(401)
        lengths = []
        while sum(lengths) < 200:
            lengths.append(rng.choice([1, 2, 3, 4, 5, 6, 8, 16]))
        d = self.planted(rng, 1, lengths, 399 - sum(lengths))
        a = d.original_matrix()
        assert [row.bit_count() > 8 + 400 // 12 for row in a.rows].count(True) == 1
        canonical, mp = d.canonical_matrix().to_lists(), d.sigma.mapping
        assert a.to_lists() == [[canonical[mp[i]][mp[j]] for j in range(400)] for i in range(400)]
        assert decompose(a, d.k).original_matrix() == a
        self.check(d)

    def test_errors_are_those_of_compose(self):
        d = decompose(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        broken = [
            (ArgumentRangeError, replace(d, k=1)),
            (CycleLengthInvalid, replace(d, n=4, cycle_lengths=(2,), source_to_cycle=(1,), cycle_to_sink=(1, 0),
                                         sigma=Permutation.identity(4))),
            (ProductNotZeroOne, replace(d, n=4, cycle_lengths=(1, 1), source_to_cycle=(3,), cycle_to_sink=(1, 1),
                                        sigma=Permutation.identity(4))),
        ]
        for kind, bad in broken:
            with pytest.raises(kind) as composed:
                bad.canonical_matrix()
            with pytest.raises(kind) as rebuilt:
                bad.original_matrix()
            with pytest.raises(kind):
                bad.source_to_sink()
            assert type(rebuilt.value) is type(composed.value) and str(rebuilt.value) == str(composed.value)
            assert getattr(rebuilt.value, "witness", None) == getattr(composed.value, "witness", None)
        # ill-shaped blocks never reach a rebuild: they are refused when built
        shapes = [
            (lambda: replace(d, source_to_cycle=()), "X and Y row counts must equal r and the cycle total"),
            # blocks that add up to 3 and to 1, not to n
            (lambda: replace(d, n=4), "r + cycle total + s must equal n"),
            (lambda: CanonicalDecomposition(5, 2, 0, (1,), 0, (), (0,), Permutation((0,))),
             "r + cycle total + s must equal n"),
            (lambda: replace(d, sigma=Permutation.identity(4)), "sigma length differs from n"),
            (lambda: CanonicalDecomposition(3, 2, -1, (1,), 3, (), (0,), Permutation.identity(3)),
             "block sizes must be non-negative"),
        ]
        for build, message in shapes:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message


class TestCanonicalForm:
    """One relabel into canonical order; composed, empty-block and dense members are in TestRebuild."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 6), st.integers(2, 13))
    def test_random_matrices(self, data, n, k):
        rows = tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
        check_canonical_form(Matrix01(n, rows), k)


def minimal_exponent(rows):
    """Minimal k >= 2 with A^k = A, from the saturating powers alone, or None.

    The powers A, A^2, ... take finitely many values, so a first A^t
    equals an earlier A^i. Some k >= 2 has A^k = A exactly when i = 1,
    and then t is the least such k and the valid k are those with t - 1
    dividing k - 1. No bound on k is assumed.
    """
    a = (rows, (0,) * len(rows))
    seen = {a: 1}
    power = a
    for t in count(2):
        power = _sat_mul_rows(*power, *a)
        if power in seen:
            return t if seen[power] == 1 else None
        seen[power] = t


@lru_cache(maxsize=None)
def index_rows(n):
    """The rows of every order-n matrix in index order, row i holding index bits i*n to i*n + n - 1."""
    return [row[::-1] for row in product(range(1 << n), repeat=n)]


def structural_strays(n, k, members):
    """The order-n indices on which _canonical_form at k disagrees with ``members``, ascending.

    Every order-n matrix is certified, non-members too: the census asks
    the structural route about its members only, so this is where an
    acceptance of a non-member shows.
    """
    forms = map(_canonical_form, index_rows(n), repeat(n), repeat(k))
    accepted = {x for x, form in enumerate(forms) if form is not None}
    return sorted(accepted.symmetric_difference(members))


class TestIdempotencyIndex:
    def test_examples(self):
        assert idempotency_index(Matrix01.identity(3)) == 2
        assert idempotency_index(Matrix01.cycle(2)) == 3
        assert idempotency_index(Matrix01.from_lists([[0, 1], [0, 0]])) is None
        assert idempotency_index(Matrix01(0, ())) == 2
        assert idempotency_index(Matrix01.zero(4)) == 2

    def test_agrees_with_direct_search(self):
        for n in (1, 2, 3):
            bound = lcm(*range(1, n + 1)) + 1
            for a in all_matrices(n):
                direct = None
                for k in range(2, bound + 1):
                    if is_k_idempotent(a, k):
                        direct = k
                        break
                assert idempotency_index(a) == direct

    def test_power_route_minimum_on_every_order_four_matrix(self):
        # every exponent at once: equal minima give equal sets of valid k. Then,
        # at each golden k, _canonical_form accepts exactly the power route's
        # members: with t the least exponent, A^k = A when t - 1 divides k - 1.
        found = Counter()
        for n in (0, 1, 2, 3, 4):
            minima = []
            for rows in index_rows(n):
                minima.append(minimal_exponent(rows))
                assert minima[-1] == idempotency_index(Matrix01(n, rows))
                found[n, minima[-1]] += 1
            for k in ORDER_KS.get(n, range(2, 8)):
                members = [x for x, t in enumerate(minima) if t and (k - 1) % (t - 1) == 0]
                assert structural_strays(n, k, members) == [], (n, k)
        assert [found[4, k] for k in (2, 3, 4, 5, None)] == [452, 471, 128, 6, 64_479]

    # a non-member certified as the zero matrix is (no core, every vertex a
    # sink): at order 3 the loops at 0, 1 and 2 with the arc 0 -> 1, whose
    # square has a 2, and the all-ones matrix of order 4
    @pytest.mark.parametrize("n, stray", [(3, 275), (4, (1 << 16) - 1)])
    def test_accepted_non_member_is_a_stray(self, monkeypatch, n, stray):
        analyze = structure._analyze_rows
        planted = index_rows(n)[stray]
        monkeypatch.setattr(
            structure, "_analyze_rows", lambda rows, n: analyze((0,) * n, n) if rows == planted else analyze(rows, n)
        )
        for k in ORDER_KS[n][:2]:
            assert structural_strays(n, k, _member_blocks(n, k, 0, 1 << (n * n))) == [stray], k

    def test_composite_cycle_lengths(self):
        a = Matrix01.from_lists(
            [
                [0, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 1, 0, 0],
            ]
        )
        # lcm(2, 3) = 6, so the minimal exponent is 7
        assert idempotency_index(a) == 7
        assert is_k_idempotent(a, 7)
        assert not any(is_k_idempotent(a, k) for k in range(2, 7))

    # seeds whose cycle lengths make p - 1 a product of two to four primes
    @pytest.mark.parametrize("n, seed", [(100, 3), (100, 4), (100, 7), (400, 3), (400, 4), (400, 7)])
    def test_power_route_certifies_the_index(self, n, seed):
        d = random_decomposition(random.Random(seed), n, 720721)
        a = d.original_matrix()
        p = idempotency_index(a)
        assert p == lcm(*d.cycle_lengths) + 1 > 3
        assert index_certificate_failure(a, p) is None
        # a planted wrong minimum: A^(2p-1) = A too, but its q = 2 test is A^p = A
        assert index_certificate_failure(a, 2 * p - 1) == 2
        # not a period at all
        assert index_certificate_failure(a, p + 1) == "power"


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(0, 10)
            k = rng.randint(2, 7)
            d = decompose(random_decomposition(rng, n, k).original_matrix(), k)
            assert isinstance(d, CanonicalDecomposition)
            assert parse_decomposition(serialize_decomposition(d)) == d

    def test_block_lists_are_stored_as_tuples(self):
        d = CanonicalDecomposition(3, 2, 1, [1], 1, [1], [1], Permutation.identity(3))
        same = decompose(d.canonical_matrix(), 2)
        assert d == same and hash(d) == hash(same)
        assert (d.cycle_lengths, d.source_to_cycle, d.cycle_to_sink) == ((1,), (1,), (1,))

    @pytest.mark.parametrize(
        "r, lengths, s", [(0, (1, 2), 3), (2, (1, 2), 0), (0, (3,), 0), (2, (), 0), (0, (), 3)]
    )
    def test_round_trip_empty_blocks(self, r, lengths, s):
        rng = random.Random(29)
        n = r + sum(lengths) + s
        mapping = list(range(n))
        rng.shuffle(mapping)
        d = CanonicalDecomposition(
            n=n,
            k=lcm(*lengths) + 1,
            source_count=r,
            cycle_lengths=lengths,
            sink_count=s,
            source_to_cycle=tuple(rng.getrandbits(sum(lengths)) for _ in range(r)),
            cycle_to_sink=tuple(rng.getrandbits(s) for _ in range(sum(lengths))),
            sigma=Permutation(tuple(mapping)),
        )
        text = serialize_decomposition(d)
        assert text.count("X=") == r and text.count("Y=") == sum(lengths)
        assert parse_decomposition(text) == d

    def test_exact_text(self):
        d = decompose(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        assert serialize_decomposition(d) == (
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\n"
        )

    def test_order_zero_text(self):
        d = decompose(Matrix01(0, ()), 2)
        text = serialize_decomposition(d)
        assert text == "n=0\nk=2\nr=0\ns=0\ncycle_lengths=\nsigma=\n"
        assert parse_decomposition(text) == d

    @pytest.mark.parametrize(
        "text",
        [
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1",  # no newline
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\n",  # missing Y
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\nY=1\n",  # extra
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=2\nsigma=0,1,2\nX=1\nY=1\n",  # bad sum
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,0,2\nX=1\nY=1\n",  # bad sigma
            "n=3\nk=1\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\n",  # k too small
            "k=2\nn=3\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=1\nY=1\n",  # field order
            "n=3\nk=2\nr=1\ns=1\ncycle_lengths=1\nsigma=0,1,2\nX=2\nY=1\n",  # bad row
            "n=1\nk=2\nr=0\ns=0\ncycle_lengths=0,1\nsigma=0\nY=\n",  # zero cycle length
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(DecompositionFormatError):
            parse_decomposition(text)

    def test_serializes_only_blocks_that_fit(self):
        # a decomposition that does not fit n is refused when built, so it
        # never reaches text that parse_decomposition rejects or reads back as other blocks
        d = decompose(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        broken = [
            # blocks that add up to 1, not to n = 5
            (lambda: CanonicalDecomposition(5, 2, 0, (1,), 0, (), (0,), Permutation((0,))),
             "r + cycle total + s must equal n"),
            (lambda: replace(d, n=4), "r + cycle total + s must equal n"),
            (lambda: replace(d, sigma=Permutation.identity(4)), "sigma length differs from n"),
            (lambda: replace(d, source_to_cycle=()), "X and Y row counts must equal r and the cycle total"),
            (lambda: replace(d, source_to_cycle=(1, 1)), "X and Y row counts must equal r and the cycle total"),
            (lambda: replace(d, cycle_to_sink=(1, 0)), "X and Y row counts must equal r and the cycle total"),
            # rows wider than their blocks: _write_rows would give them lines too long to parse back
            (lambda: CanonicalDecomposition(3, 2, 1, (1,), 1, (0b10,), (1,), Permutation((0, 1, 2))),
             "source block row exceeds cycle width"),
            (lambda: CanonicalDecomposition(3, 2, 1, (1,), 1, (1,), (0b10,), Permutation((0, 1, 2))),
             "cycle block row exceeds sink width"),
            # a float row is no bitset: refused by the same rule, not left to raise a TypeError
            (lambda: CanonicalDecomposition(3, 2, 1, (1,), 1, (1.0,), (1,), Permutation((0, 1, 2))),
             "source block row exceeds cycle width"),
            (lambda: CanonicalDecomposition(3, 2, 1, (1,), 1, (1,), (1.0,), Permutation((0, 1, 2))),
             "cycle block row exceeds sink width"),
        ]
        for build, message in broken:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    @pytest.mark.parametrize("sigma", [(0, 1, 2), [0, 1, 2], (0, 0, 0)], ids=["tuple", "list", "not-bijective"])
    def test_sigma_must_be_a_permutation(self, sigma):
        # serialize_decomposition and original_matrix read sigma.mapping
        d = decompose(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        with pytest.raises(ValueError) as raised:
            replace(d, sigma=sigma)
        assert str(raised.value) == "sigma must be a Permutation"

    @pytest.mark.parametrize(
        "field, value",
        [("n", 3.0), ("k", 2.0), ("k", True), ("source_count", True), ("sink_count", True), ("cycle_lengths", (True,))],
        ids=["n-float", "k-float", "k-bool", "r-bool", "s-bool", "cycle-length-bool"],
    )
    def test_serializes_only_int_fields(self, field, value):
        # each equals the int it stands for, so the sizes still add up, but it would
        # be written as "3.0" or "True", which parse_decomposition refuses
        d = decompose(Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        with pytest.raises(ValueError) as raised:
            replace(d, **{field: value})
        assert str(raised.value) == "n, k, block sizes and cycle lengths must be of type int"


class TestParseMessages:
    """Seeded corruptions of the X and Y rows of an order-12 decomposition, each named exactly.

    Lines are counted from 1: six header lines, then r X rows, then m Y
    rows. A bad row is named by its own line; a missing or misplaced
    prefix by the line where the expected key was not found.
    """

    @staticmethod
    def valid_lines():
        rng = random.Random(12)
        d = random_decomposition(rng, 12, 7)
        while not (d.source_count > 1 and d.cycle_total > 1 and d.sink_count > 1):
            d = random_decomposition(rng, 12, 7)
        return d, serialize_decomposition(d)[:-1].split("\n")

    @pytest.mark.parametrize("key", ["X", "Y"])
    @pytest.mark.parametrize(
        "kind", ["bad_char", "non_ascii", "wrong_width", "missing_prefix", "missing_row", "extra_row"]
    )
    def test_exact_message(self, kind, key):
        d, valid = self.valid_lines()
        r, m = d.source_count, d.cycle_total
        assert parse_decomposition("\n".join(valid) + "\n") == d
        first, count = (6, r) if key == "X" else (6 + r, m)
        for seed in range(8):
            rng = random.Random(seed)
            lines = list(valid)
            i = first + rng.randrange(count)  # index of the corrupted line; it is line i + 1
            line = lines[i]
            j = rng.randrange(2, len(line))  # a digit of the row
            bad_row = f"bad {key} row on line {i + 1}"
            if kind == "bad_char":
                lines[i] = line[:j] + rng.choice("2a +_-.") + line[j + 1 :]
                expected = bad_row
            elif kind == "non_ascii":
                lines[i] = line[:j] + rng.choice("\u00e9\u0661\uff11") + line[j + 1 :]
                expected = bad_row
            elif kind == "wrong_width":
                lines[i] = line + rng.choice("01") if rng.random() < 0.5 else line[:-1]
                expected = bad_row
            elif kind == "missing_prefix":
                lines[i] = rng.choice(["", key.lower() + "=", key + ":", "Z=", "XY"[key == "X"] + "="]) + line[2:]
                expected = f"expected '{key}=' on line {i + 1}"
            elif kind == "missing_row":
                del lines[i]
                # the last row of the block is looked for one line early, or past the end
                expected = f"expected 'X=' on line {6 + r}" if key == "X" else f"expected 'Y=' on line {6 + r + m}"
            else:
                lines.insert(i, line)
                expected = f"expected 'Y=' on line {7 + r}" if key == "X" else "unexpected trailing content"
            with pytest.raises(DecompositionFormatError) as raised:
                parse_decomposition("\n".join(lines) + "\n")
            assert str(raised.value) == expected, (seed, lines[i] if i < len(lines) else None)

    @pytest.mark.parametrize("key", ["X", "Y"])
    def test_shifted_row_boundary(self, key):
        # A row one digit short, its digit moved to the start of the next row: the block keeps
        # its length, its digit count and every key and "=" at its place; only a newline moves.
        d, lines = self.valid_lines()
        i = 6 if key == "X" else 6 + d.source_count
        lines[i], lines[i + 1] = lines[i][:-1], lines[i][-1] + lines[i + 1]
        with pytest.raises(DecompositionFormatError) as raised:
            parse_decomposition("\n".join(lines) + "\n")
        assert str(raised.value) == f"bad {key} row on line {i + 1}"


def line_walk_serialize(d):
    """The decomposition text rendered one row at a time, digit by digit."""
    bits = lambda v, w: "".join(str(v >> j & 1) for j in range(w))
    lines = [f"n={d.n}", f"k={d.k}", f"r={d.source_count}", f"s={d.sink_count}",
             "cycle_lengths=" + ",".join(map(str, d.cycle_lengths)), "sigma=" + ",".join(map(str, d.sigma.mapping))]
    lines += ["X=" + bits(x, d.cycle_total) for x in d.source_to_cycle]
    lines += ["Y=" + bits(y, d.sink_count) for y in d.cycle_to_sink]
    return "\n".join(lines) + "\n"


def line_walk_parse(text):
    """The decomposition text parsed line by line and field by field, the reference for the block reader.

    Faults are named in the reader's order: the final newline, the header
    fields one by one, the header's size rules and sigma, every X row, then
    every Y row, a missing or misplaced key by the line where it was
    looked for, and then content past the last Y row.
    """
    error = DecompositionFormatError
    if not text.endswith("\n"):
        raise error("decomposition text must end with a newline")
    lines = text[:-1].split("\n")

    def take(pos, key):
        if pos >= len(lines) or not lines[pos].startswith(key + "="):
            raise error(f"expected '{key}=' on line {pos + 1}")
        return lines[pos][len(key) + 1 :]

    def int_list(value, noun):
        return tuple(_parse_decimal(part, noun, error) for part in value.split(",")) if value else ()

    def take_rows(start, count, key, width):
        rows = []
        for pos in range(start, start + count):
            line = take(pos, key)
            if len(line) != width or not set(line) <= {"0", "1"}:
                raise error(f"bad {key} row on line {pos + 1}")
            rows.append(int(line[::-1] or "0", 2))
        return tuple(rows)

    n = _parse_decimal(take(0, "n"), "n value", error)
    k = _parse_decimal(take(1, "k"), "k value", error)
    if k < 2:
        raise error("k must be at least 2")
    r = _parse_decimal(take(2, "r"), "r value", error)
    s = _parse_decimal(take(3, "s"), "s value", error)
    cycle_lengths = int_list(take(4, "cycle_lengths"), "cycle length value")
    mapping = int_list(take(5, "sigma"), "sigma entry value")
    _check_header(n, r, cycle_lengths, s, len(mapping), error)
    m = sum(cycle_lengths)
    try:
        sigma = Permutation(mapping)
    except ValueError as exc:
        raise error(str(exc)) from None
    x_rows, y_rows = take_rows(6, r, "X", m), take_rows(6 + r, m, "Y", s)
    if 6 + r + m != len(lines):
        raise error("unexpected trailing content")
    return CanonicalDecomposition(n, k, r, cycle_lengths, s, x_rows, y_rows, sigma)


# Decimal fields that int() reads but the format refuses, and one beyond int()'s digit limit.
BAD_DECIMAL_FIELDS = ["01", "+1", "1_0", "-1", " 1", "1 ", "", "\u0661", "0x1", "1" + "0" * 4999]


class TestBlockCodec:
    """serialize_decomposition and parse_decomposition against the line walk they replace."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.lists(st.sampled_from([1, 2, 3, 6]), max_size=3), st.integers(0, 4), st.integers(0, 2**32))
    def test_round_trip_with_empty_blocks(self, r, lengths, s, seed):
        d = TestRebuild.planted(random.Random(seed), r, lengths, s)
        text = serialize_decomposition(d)
        assert text == line_walk_serialize(d)
        assert parse_decomposition(text) == d

    @pytest.mark.parametrize("seed", range(6))
    def test_corruptions_fail_as_the_line_walk_does(self, seed):
        rng = random.Random(seed)
        for n in [*range(13), 40]:
            text = serialize_decomposition(random_decomposition(rng, n, rng.choice([2, 3, 7, 13])))
            for bad in corrupted_texts(rng, text, 40):
                assert outcome(parse_decomposition, bad) == outcome(line_walk_parse, bad), repr(bad)

    @pytest.mark.parametrize("field", BAD_DECIMAL_FIELDS)
    @pytest.mark.parametrize("key", ["cycle_lengths", "sigma"])
    def test_decimal_fields_fail_as_the_field_walk_does(self, key, field):
        d = TestRebuild.planted(random.Random(5), 2, (1, 2), 2)
        lines = serialize_decomposition(d).split("\n")
        pos = 4 if key == "cycle_lengths" else 5
        values = lines[pos].split("=")[1].split(",")
        for i in range(len(values)):
            lines[pos] = f"{key}=" + ",".join(values[:i] + [field] + values[i + 1 :])
            text = "\n".join(lines)
            assert outcome(parse_decomposition, text) == outcome(line_walk_parse, text)
            assert outcome(parse_decomposition, text)[0] is DecompositionFormatError


class TestUpperTriangularLemma:
    def test_exhaustive(self):
        for n in (2, 3, 4):
            positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for bits in range(1, 1 << len(positions)):
                rows = [0] * n
                for t, (i, j) in enumerate(positions):
                    if (bits >> t) & 1:
                        rows[i] |= 1 << j
                a = Matrix01(n, tuple(rows))
                for k in range(2, 8):
                    assert not is_k_idempotent(a, k)
