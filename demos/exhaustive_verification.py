#!/usr/bin/env python3
"""Desk-scale verification: every claim, checked on every small matrix.

Membership (A^k = A) is decided in the saturating semiring {0, 1, 2+},
whose powers agree with the capped exact integer powers (entry (i, j) of
A^m counts the walks of length m from i to j). Structure is certified
independently by ``decompose``: sources, cycles whose lengths divide
k - 1, sinks and the corner-block identity. The census decides all
2^(n^2) matrices by the power route, certifies and rebuilds each member
by the structural route, and closes the check by counting the canonical
forms, reporting any disagreement, along with the density maximum and
the strictly-upper-triangular scan.
"""

from kidempotent import (
    Matrix01,
    census,
    decompose,
    enumerate_k_idempotent,
    exact_power,
    sat_power,
    serialize_census,
)

print("counts of k-idempotent matrices:")
for n in (1, 2, 3):
    row = [sum(1 for _ in enumerate_k_idempotent(n, k)) for k in range(2, 8)]
    print(f"  n={n}: k=2..7 -> {row}")

print("\nfull census at n=3, k=4:")
print(serialize_census(census(3, 4)), end="")

print("\nwalk counting vs saturating powers on one digraph:")
a = Matrix01.from_lists(
    [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 1],
        [0, 0, 0, 0],
    ]
)
for length in (1, 2, 3, 6):
    exact = exact_power(a, length)
    capped = sat_power(a, length)
    print(f"  length {length}: exact {exact}")
    assert [[min(v, 2) for v in row] for row in exact] == capped

print("\ncanonical structure of that matrix at k=4:")
d = decompose(a, 4)
print(f"  {d.source_count} sources, cycle lengths {d.cycle_lengths}, {d.sink_count} sinks")

print("\nthe first few 3-idempotent matrices of order 2, in index order:")
for matrix in list(enumerate_k_idempotent(2, 3))[:4]:
    print("  rows:", matrix.to_lists())
