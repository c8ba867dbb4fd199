"""Digraph view of a 0-1 matrix.

The digraph of a matrix has an arc (i, j) exactly when entry (i, j) is 1,
so entry (i, j) of the m-th power counts the directed walks of length m
from i to j. This module provides strongly connected components with a
deterministic condensation order, a cycle classification of each
component, reachability, and an exact walk counter that serves as the
independent reference for the saturating power route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .matrix01 import INT64_MAX, Matrix01

__all__ = [
    "ComponentKind",
    "Digraph",
    "SccComponent",
    "SccReport",
    "count_walks",
    "has_path",
    "sccs",
]


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..n-1 with bit-packed successor sets."""

    n: int
    succ: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "succ", tuple(self.succ))
        if len(self.succ) != self.n:
            raise ValueError("successor table length differs from vertex count")
        limit = 1 << self.n
        for row in self.succ:
            if not 0 <= row < limit:
                raise ValueError("successor set mentions an unknown vertex")

    @classmethod
    def from_matrix(cls, a: Matrix01) -> "Digraph":
        return cls(a.n, a.rows)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.succ[u] >> v) & 1)


class ComponentKind(Enum):
    TRIVIAL_ACYCLIC = "trivial-acyclic"
    CYCLE = "cycle"
    NON_CYCLE = "non-cycle"


@dataclass(frozen=True)
class SccComponent:
    """One strongly connected component with its shape classification.

    A single vertex carrying a self-loop is a CYCLE of length 1, not
    TRIVIAL_ACYCLIC. A CYCLE component of length L has exactly L vertices
    whose in- and out-degrees inside the component are all 1, forming one
    orbit; its induced submatrix is permutation similar to the basic
    circulant of order L.
    """

    vertices: tuple[int, ...]
    kind: ComponentKind
    cycle_length: int | None = None


@dataclass(frozen=True)
class SccReport:
    """Components in reverse-topological condensation order.

    Every arc that leaves a component targets an earlier-listed
    component, so sinks of the condensation come first. Ties between
    incomparable components go to the one containing the smallest vertex
    index, which makes the order deterministic.
    """

    components: tuple[SccComponent, ...]


def _tarjan(succ: tuple[int, ...], n: int) -> list[list[int]]:
    """Iterative Tarjan; emits components roughly sinks-first."""
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [[root, succ[root]]]
        while work:
            v, rem = work[-1]
            if rem:
                lowbit = rem & -rem
                work[-1][1] = rem ^ lowbit
                w = lowbit.bit_length() - 1
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append([w, succ[w]])
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comps


def _normalize_order(succ: tuple[int, ...], n: int, comps: list[list[int]]) -> list[list[int]]:
    """Reverse-topological order with smallest-vertex tie-break."""
    comp_id = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    out_sets: list[set[int]] = [set() for _ in comps]
    for v in range(n):
        bits = succ[v]
        while bits:
            low = bits & -bits
            bits ^= low
            w = low.bit_length() - 1
            if comp_id[w] != comp_id[v]:
                out_sets[comp_id[v]].add(comp_id[w])
    mins = [min(comp) for comp in comps]
    remaining = set(range(len(comps)))
    done: set[int] = set()
    order = []
    while remaining:
        ready = [ci for ci in remaining if out_sets[ci] <= done]
        nxt = min(ready, key=lambda ci: mins[ci])
        order.append(nxt)
        remaining.discard(nxt)
        done.add(nxt)
    return [comps[ci] for ci in order]


def _orbit(succ: Sequence[int], comp: Sequence[int]) -> tuple[int, ...] | None:
    """The component's cycle orbit from its smallest vertex, or None.

    A component is a cycle when every vertex has exactly one arc inside
    it and following those arcs from the smallest vertex visits every
    vertex once before returning. A single vertex is a cycle only if it
    carries a self-loop.
    """
    if len(comp) == 1:
        v = comp[0]
        return (v,) if (succ[v] >> v) & 1 else None
    mask = 0
    for v in comp:
        mask |= 1 << v
    for v in comp:
        if (succ[v] & mask).bit_count() != 1:
            return None
    # Out-degree 1 everywhere plus strong connectivity forces one orbit;
    # the traversal below is a defensive confirmation.
    start = min(comp)
    orbit = [start]
    cur = start
    for _ in range(len(comp) - 1):
        cur = (succ[cur] & mask).bit_length() - 1
        if cur == start:
            return None
        orbit.append(cur)
    if (succ[cur] & mask) != 1 << start:
        return None
    return tuple(orbit)


def sccs(d: Digraph) -> SccReport:
    """Strongly connected components, classified and deterministically ordered."""
    comps = _normalize_order(d.succ, d.n, _tarjan(d.succ, d.n))
    out = []
    for comp in comps:
        orbit = _orbit(d.succ, comp)
        if orbit is not None:
            kind, length = ComponentKind.CYCLE, len(orbit)
        elif len(comp) == 1:
            kind, length = ComponentKind.TRIVIAL_ACYCLIC, None
        else:
            kind, length = ComponentKind.NON_CYCLE, None
        out.append(SccComponent(tuple(sorted(comp)), kind, length))
    return SccReport(tuple(out))


def count_walks(d: Digraph, length: int) -> list[list[int]]:
    """Exact number of directed walks of the given length between all pairs.

    Dynamic programming on the walk length: a walk of length t is an arc
    followed by a walk of length t-1. This is deliberately not matrix
    powering, so it can serve as an independent reference for
    :func:`kidempotent.matrix01.sat_power`. Counts beyond the signed
    64-bit budget raise ``OverflowError``.
    """
    if length < 1:
        raise ValueError("walk length must be at least 1")
    n = d.n
    counts = [[(d.succ[i] >> j) & 1 for j in range(n)] for i in range(n)]
    for _ in range(length - 1):
        nxt = []
        for i in range(n):
            row = [0] * n
            bits = d.succ[i]
            while bits:
                low = bits & -bits
                bits ^= low
                src = counts[low.bit_length() - 1]
                for j in range(n):
                    row[j] += src[j]
            for v in row:
                if v > INT64_MAX:
                    raise OverflowError("walk count exceeds the 64-bit budget")
            nxt.append(row)
        counts = nxt
    return counts


def has_path(d: Digraph, from_vertices: Iterable[int], to_vertices: Iterable[int]) -> bool:
    """Whether some directed path of length >= 1 leads from the first set to the second."""
    target = 0
    for v in to_vertices:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range")
        target |= 1 << v
    frontier = 0
    for v in from_vertices:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range")
        frontier |= d.succ[v]
    reach = frontier
    while True:
        if reach & target:
            return True
        new = 0
        bits = frontier
        while bits:
            low = bits & -bits
            bits ^= low
            new |= d.succ[low.bit_length() - 1]
        new &= ~reach
        if not new:
            return False
        reach |= new
        frontier = new
