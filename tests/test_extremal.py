import hashlib
import random
from itertools import permutations

import pytest

from kidempotent import cli, extremal
from kidempotent.extremal import (
    ExtremalParams,
    _family_matrices,
    _family_rows,
    InvalidParams,
    ValidationFailed,
    construct_extremal,
    extremal_families,
    family_line,
    is_extremal,
)
from kidempotent.matrix01 import Matrix01, Permutation, exact_power, nnz, permute
from kidempotent.oracle import enumerate_k_idempotent
from kidempotent.structure import (
    CanonicalDecomposition,
    ProductNotZeroOne,
    _blocks,
    _canonical_form,
    _fits_maximum_form,
    allowed_boundary_counts,
    decompose,
    gamma,
    is_k_idempotent,
    matches_maximum_form,
    parse_decomposition,
)


class TestGamma:
    def test_examples(self):
        assert gamma(3) == 4
        assert gamma(4) == 6
        assert gamma(5) == 9

    def test_small_table(self):
        assert [gamma(n) for n in range(1, 9)] == [1, 2, 4, 6, 9, 12, 16, 20]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gamma(0)

    def test_parity_identity(self):
        for n in range(1, 10_001):
            if n % 2:
                assert 4 * gamma(n) == (n + 1) ** 2
            else:
                assert 4 * gamma(n) == n * n + 2 * n

    def test_allowed_boundary_counts(self):
        assert allowed_boundary_counts(5) == (2,)
        assert allowed_boundary_counts(4) == (1, 2)
        assert allowed_boundary_counts(1) == (0,)


class TestConstruct:
    def test_small_worked_example(self):
        m = construct_extremal(3, 2, ExtremalParams("A", 1, 1, (1,), (0,)))
        assert m == Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]])
        assert nnz(m) == gamma(3)

    def test_order_five_example(self):
        m = construct_extremal(5, 3, ExtremalParams("A", 2, 1, (2,), (0,)))
        assert nnz(m) == 9 == gamma(5)
        assert exact_power(m, 3) == m.to_lists()
        d = decompose(m, 3)
        # X and the derived corner are all ones
        assert d.source_to_cycle == (3, 3)
        assert d.source_to_sink() == (1, 1)

    def test_rejects_bad_source_count(self):
        with pytest.raises(InvalidParams):
            construct_extremal(4, 2, ExtremalParams("A", 3, 0, (1,), ()))
        with pytest.raises(ValueError, match="block sizes must be non-negative"):
            ExtremalParams("A", -1, 1, (1,), (0,))

    @pytest.mark.parametrize(
        "cycle_lengths, pattern",
        [((True,), (0,)), ((1.0,), (0,)), ((1,), (False,)), ((1,), (0.0,))],
        ids=["cycle-length-bool", "cycle-length-float", "pattern-bool", "pattern-float"],
    )
    def test_rejects_cycle_lengths_and_pattern_not_of_type_int(self, cycle_lengths, pattern):
        # each equals the int it stands for, but family_line would write True, and a float index fails the build
        with pytest.raises(ValueError) as raised:
            ExtremalParams("A", 1, 1, cycle_lengths, pattern)
        assert str(raised.value) == "cycle lengths and pattern entries must be of type int"

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be 'A' or 'B'"):
            ExtremalParams("C", 1, 1, (1,), (0,))

    def test_rejects_bad_cycle_length(self):
        with pytest.raises(InvalidParams):
            construct_extremal(3, 4, ExtremalParams("A", 1, 0, (2,), ()))

    def test_rejects_bad_pattern(self):
        with pytest.raises(InvalidParams):
            construct_extremal(3, 2, ExtremalParams("A", 1, 1, (1,), ()))
        with pytest.raises(InvalidParams):
            construct_extremal(3, 2, ExtremalParams("A", 1, 1, (1,), (1,)))

    def test_density_off_gamma_fails_validation(self, monkeypatch):
        # the guard on the parameter algebra: a bound one above the family's count of ones
        bound = extremal.gamma
        monkeypatch.setattr(extremal, "gamma", lambda n: bound(n) + 1)
        with pytest.raises(ValidationFailed, match="^composed matrix misses the density bound$"):
            construct_extremal(3, 2, ExtremalParams("A", 1, 1, (1,), (0,)))

    def test_rejects_degenerate_density(self):
        # sources plus sinks only: composes to the zero corner, density 0
        with pytest.raises((InvalidParams, ValidationFailed)):
            construct_extremal(2, 2, ExtremalParams("A", 1, 1, (), ()))

    def test_variant_b_mirrors_variant_a(self):
        # reversing the index order of a variant-B matrix and transposing
        # yields a variant-A matrix with the roles of r and s swapped
        b = construct_extremal(5, 2, ExtremalParams("B", 1, 2, (1, 1), (0,)))
        assert nnz(b) == gamma(5)
        assert is_extremal(b, 2)
        rev = permute(b, Permutation(tuple(reversed(range(5)))))
        mirrored = Matrix01.from_lists(list(zip(*rev.to_lists())))
        assert is_extremal(mirrored, 2)
        d = decompose(mirrored, 2)
        assert (d.source_count, d.sink_count) == (2, 1)
        assert matches_maximum_form(d)


class TestIsExtremal:
    def test_examples(self):
        m = Matrix01.from_lists([[0, 1, 1], [0, 1, 1], [0, 0, 0]])
        assert is_extremal(m, 2)
        assert not is_extremal(Matrix01.identity(3), 2)
        assert not is_extremal(Matrix01.zero(1), 2)
        assert not is_extremal(Matrix01(0, ()), 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            is_extremal(Matrix01.zero(1), 1)


class TestFamilies:
    def test_order_one(self):
        fams = extremal_families(1, 2)
        assert len(fams) == 1
        assert fams[0].cycle_lengths == (1,)
        assert fams[0].source_count == 0 and fams[0].sink_count == 0
        assert construct_extremal(1, 2, fams[0]) == Matrix01.from_lists([[1]])

    def test_order_three_includes_worked_family(self):
        fams = extremal_families(3, 2)
        assert len(fams) == 3
        assert ExtremalParams("A", 1, 1, (1,), (0,)) in fams

    def test_no_invalid_cycles_at_k4(self):
        fams = extremal_families(2, 4)
        assert fams
        assert all(set(p.cycle_lengths) == {1} for p in fams)

    def test_family_counts_frozen(self):
        assert len(extremal_families(2, 2)) == 3
        assert len(extremal_families(4, 2)) == 10
        assert len(extremal_families(5, 3)) == 13

    def test_families_distinct_and_extremal(self):
        for n in range(1, 7):
            for k in range(2, 8):
                fams = extremal_families(n, k)
                assert fams
                seen = set()
                for p in fams:
                    m = construct_extremal(n, k, p)
                    assert is_extremal(m, k)
                    assert m.rows not in seen
                    seen.add(m.rows)

    def test_family_line_matches_decomposition(self):
        # the one-line form carries exactly the decomposition of the composed matrix
        for n, k in [(1, 2), (3, 2), (4, 3), (5, 2)]:
            for p in extremal_families(n, k):
                line = family_line(n, k, p)
                variant, rest = line.split(" ", 1)
                assert variant == f"variant={p.variant}"
                d = parse_decomposition(rest.replace(" ", "\n") + "\n")
                m = construct_extremal(n, k, p)
                assert d == decompose(m, k)

    @pytest.mark.parametrize(
        "n, k, params, message",
        [
            (5, 7, ExtremalParams("A", 1, 1, (1,), (0,)), "block sizes do not add up to the order"),
            (4, 2, ExtremalParams("A", 3, 0, (1,), ()), "count 3 not in the allowed set (1, 2)"),
            (5, 2, ExtremalParams("B", 1, 1, (1, 1, 1), (0,)), "count 1 not in the allowed set (2,)"),
            (3, 4, ExtremalParams("A", 1, 0, (2,), ()), "cycle length 2 does not divide k-1 = 3"),
            (3, 2, ExtremalParams("A", 1, 1, (1,), ()), "pattern length does not match the one-per-line block"),
            (5, 7, ExtremalParams("A", 2, 1, (1, 1), (-1,)), "pattern index outside the cycle block"),
            (5, 7, ExtremalParams("B", 1, 2, (1, 1), (2,)), "pattern index outside the cycle block"),
        ],
        ids=["sizes", "count_A", "count_B", "cycle_length", "pattern_length", "pattern_index_A", "pattern_index_B"],
    )
    def test_family_line_rejects_invalid_params(self, n, k, params, message):
        # family_line renders only what construct_extremal accepts, with the same message
        for build in (construct_extremal, family_line):
            with pytest.raises(InvalidParams) as raised:
                build(n, k, params)
            assert str(raised.value) == message


class TestGroupedFamilies:
    """The listing composes candidates per (variant, boundary count, cycle multiset) group."""

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_rows_equal_the_checking_route(self, k):
        for n in range(1, 10):
            families = _family_matrices(n, k)
            assert families
            for fields, rows in families:
                assert rows == _family_rows(n, k, ExtremalParams(*fields))

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (10, 7, "b830062202b3c6ab5b1329d638af8379ba837865c56ee481f6eae877b4167f4b"),
            # 620 families, every cycle length divides k - 1: the most cycle multisets of any case here
            (10, 720721, "ed4193a1c99b5d7918947ef584d6471c4432ff6bb893f0adf68ca8419a0f731c"),
            (9, 2, "f49336315307e7906ce34101a445170f31fa452cb7f01dbe0d48be31043400a1"),
            (8, 3, "6b7ea8183c622942353f22ed49b6b9ee74415bbb426f229adc1f3836557e9c39"),
            (6, 4, "2a1255182f2f1aa62b126c8ca9bad0c830cc7d259d7fbcf22eef2dbf9bd5537d"),
            (1, 2, "a1cabf303ff7360d7022795cacf9827ee1ec8f16834892f410ac3fb3f77bf1ed"),
        ],
    )
    def test_listing_digest(self, capsys, n, k, digest):
        # digests pinned from the per-family route (one row-route power each), not from the command's
        # one bit-sliced power; test_cli checks the command against that route's rendering
        assert cli.main(["extremal", "--n", str(n), "--k", str(k)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestBatchedChecks:
    """Each check that _family_matrices groups into one batch can still drop a family."""

    N, K = 5, 3

    def spy(self, monkeypatch, target, replace):
        """Compose the target family's rows as ``replace(rows)``; return the lane flags seen."""
        build, lanes, seen = extremal._build_rows, extremal._lanes_k_idempotent, {}

        def compose(*blocks):
            rows = build(*blocks)
            return replace(rows) if rows == target else rows

        def verify(n, k, row_tuples):
            flags = lanes(n, k, row_tuples)
            seen.update({rows: flags >> i & 1 for i, rows in enumerate(row_tuples)})
            return flags

        monkeypatch.setattr(extremal, "_build_rows", compose)
        monkeypatch.setattr(extremal, "_lanes_k_idempotent", verify)
        return seen

    @pytest.mark.parametrize("moved", [False, True])
    def test_power_check_drops_a_flipped_family(self, monkeypatch, moved):
        # One flipped entry; or, moved, a 1 flipped off as well, so the count stays gamma(n)
        # and only the power check can drop the family.
        n, k = self.N, self.K
        families = _family_matrices(n, k)
        target = families[4][1]
        cells = range(n * n)
        ones = [e for e in cells if target[e // n] >> e % n & 1]
        flips = [(e, one) for e in cells if e not in ones for one in ones] if moved else [(e,) for e in cells]

        def flip(rows, entries):
            rows = list(rows)
            for e in entries:
                rows[e // n] ^= 1 << e % n
            return tuple(rows)

        flipped = next(flip(target, f) for f in flips if not is_k_idempotent(Matrix01(n, flip(target, f)), k))
        assert (sum(map(int.bit_count, flipped)) == gamma(n)) == moved
        seen = self.spy(monkeypatch, target, lambda rows: flipped)
        assert _family_matrices(n, k) == families[:4] + families[5:]
        assert seen[flipped] == 0

    def test_count_check_drops_the_zero_matrix(self, monkeypatch):
        families = _family_matrices(self.N, self.K)
        target, zero = families[7][1], (0,) * self.N
        seen = self.spy(monkeypatch, target, lambda rows: zero)
        assert _family_matrices(self.N, self.K) == families[:7] + families[8:]
        assert seen[zero] == 1  # k-idempotent, with 0 ones


class TestEqualityCharacterization:
    def test_orbits_cover_argmax(self, get_census):
        # every maximum-density matrix is a relabeling of some family, and
        # every relabeling of a family is maximum-density
        for n in (1, 2, 3, 4):
            for k in (2, 3, 4, 5):
                report = get_census(n, k)
                argmax = {m.rows for m in report.argmax}
                orbit = set()
                for p in extremal_families(n, k):
                    base = construct_extremal(n, k, p)
                    for perm in permutations(range(n)):
                        orbit.add(permute(base, Permutation(perm)).rows)
                assert argmax == orbit

    def test_matches_maximum_form_on_argmax(self, get_census):
        for n in (1, 2, 3):
            for k in (2, 3):
                for m in get_census(n, k).argmax:
                    d = decompose(m, k)
                    assert isinstance(d, CanonicalDecomposition)
                    assert matches_maximum_form(d)

    def test_non_extremal_form_rejected(self):
        d = decompose(Matrix01.identity(3), 2)
        assert not matches_maximum_form(d)
        assert not matches_maximum_form(decompose(Matrix01(0, ()), 2))  # order 0 has no gamma

    def test_corner_not_zero_one_fits_neither_shape(self):
        # hand-built blocks whose corner X P^T Y has an entry 2: no matrix,
        # and each shape would give an all-ones corner
        d = CanonicalDecomposition(4, 2, 1, (1, 1), 1, (0b11,), (1, 1), Permutation.identity(4))
        with pytest.raises(ProductNotZeroOne):
            d.source_to_sink()
        assert not matches_maximum_form(d)


def reference_max_form(d):
    """The two shapes of the density theorem, read off the decomposition's fields."""
    allowed = allowed_boundary_counts(d.n)
    full_cycle = (1 << d.cycle_total) - 1
    full_sink = (1 << d.sink_count) - 1
    columns = [sum((row >> j) & 1 for row in d.cycle_to_sink) for j in range(d.sink_count)]
    variant_a = (
        d.source_count in allowed and all(row == full_cycle for row in d.source_to_cycle) and set(columns) <= {1}
    )
    variant_b = (
        d.sink_count in allowed
        and all(row == full_sink for row in d.cycle_to_sink)
        and all(row.bit_count() == 1 for row in d.source_to_cycle)
    )
    return all(row == full_sink for row in d.source_to_sink()) and (variant_a or variant_b)


def census_rule(a, k):
    """The density shape as a census decides it: on the blocks of the canonical form."""
    return _fits_maximum_form(*_blocks(*_canonical_form(a.rows, a.n, k)[0]))


class TestBlockRule:
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_every_member(self, k):
        # on members the shapes hold exactly at gamma(n) ones (the density theorem)
        outcomes = set()
        for n in range(1, 5):
            for a in enumerate_k_idempotent(n, k):
                d = decompose(a, k)
                fits = census_rule(a, k)
                assert fits == matches_maximum_form(d) == reference_max_form(d) == (nnz(a) == gamma(n))
                outcomes.add(fits)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_family(self, n):
        rng = random.Random(n)
        for k in (2, 3, 7):
            for p in extremal_families(n, k):
                a = construct_extremal(n, k, p)
                order = list(range(n))
                rng.shuffle(order)
                for b in (a, permute(a, Permutation(tuple(order)))):
                    d = decompose(b, k)
                    assert census_rule(b, k) and matches_maximum_form(d) and reference_max_form(d)
