#!/usr/bin/env python3
"""Tour of the canonical block structure.

A 0-1 matrix with A^k = A is, up to a simultaneous relabeling of rows
and columns, a block matrix built from source rows, a direct sum of
cycles whose lengths divide k - 1, and sink columns, with the corner
block forced to equal X P^T Y. This script checks a matrix, recovers
its blocks, rebuilds it, and finds its minimal exponent.
"""

from kidempotent import (
    Matrix01,
    compose,
    decompose,
    exact_power,
    idempotency_index,
    is_k_idempotent,
    permute,
    sat_power,
    serialize_decomposition,
    to_text,
)

print("A matrix that repeats under squaring:")
a = Matrix01.from_lists(
    [
        [0, 1, 1],
        [0, 1, 1],
        [0, 0, 0],
    ]
)
print(to_text(a))
print("A^2 = A?", is_k_idempotent(a, 2))

print("\nIts canonical block data:")
d = decompose(a, 2)
print(serialize_decomposition(d))
print("sources:", d.source_count, " cycles:", d.cycle_lengths, " sinks:", d.sink_count)
print("derived corner block rows:", d.source_to_sink())

print("\nRebuilding from the blocks reproduces the matrix exactly:")
rebuilt = permute(d.canonical_matrix(), d.sigma)
print(to_text(rebuilt))
assert rebuilt == a

print("A directed 3-cycle is 4-idempotent but not 3-idempotent:")
c3 = Matrix01.cycle(3)
print(to_text(c3))
print("C^4 = C?", is_k_idempotent(c3, 4), "   C^3 = C?", is_k_idempotent(c3, 3))
print("minimal exponent:", idempotency_index(c3))

print("\nA 2-cycle next to a 3-cycle needs lcm(2, 3) + 1 = 7:")
mixed = compose(0, [2, 3], 0, [], [[], [], [], [], []], 7)
print(to_text(mixed))
print("minimal exponent:", idempotency_index(mixed))

print("\nWhy nonzero nilpotent matrices never qualify:")
nil = Matrix01.from_lists([[0, 1], [0, 0]])
print(to_text(nil))
print("minimal exponent:", idempotency_index(nil))
print("saturating square:", sat_power(nil, 2))

print("\nIntermediate powers may leave the 0-1 world while A^k = A holds:")
tricky = compose(1, [3], 1, [[1, 1, 0]], [[1], [1], [0]], 4)
print(to_text(tricky))
print("exact H^2:", exact_power(tricky, 2))
print("H^4 = H?", is_k_idempotent(tricky, 4))
