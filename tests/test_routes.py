"""The power route and the structural route share no decision.

The census compares the two routes against each other, so a helper that
one route borrowed from the other by mistake would make it compare a
route with itself, and every other test would still pass. This module
walks the package's static call graph from the roots of each route and
pins the crossings that must not exist.

The walk takes, for each function, the names in its code object and in
every code object nested in it (``co_names``, recursing through
``co_consts``, which covers lambdas and comprehensions), and resolves
them in the function's own module globals. It follows every package
function so found (one whose globals are those of a ``kidempotent``
module, unwrapping ``lru_cache``), and every method of a package class
so named.

Blind spots: a call through an attribute (``structure._analyze_rows(...)``
on a module object, or a method of an object passed in) or through
``getattr`` with a string is not seen, and a function passed as an
argument is seen where it is written, not where it is called. Today
``_power`` calls its ``mul`` argument, and every lambda passed to it is
written inside the route's own functions, so the walk covers them. The
walk also over-reports: an attribute name that equals a package
global's name counts as a call, so a spurious crossing fails the test
rather than a real one passing it.
"""

from types import CodeType, FunctionType

import pytest

from kidempotent import matrix01, oracle, structure

# The power route decides A^k = A from saturating powers alone.
POWER_ROOTS = (oracle._member_blocks, structure.power_failure, matrix01.sat_power, matrix01._lanes_k_idempotent)
# The structural route certifies the block form and never forms a power.
STRUCTURAL_ROOTS = (structure._canonical_form, structure.idempotency_index)
# What the power route must never reach: the structural certification and its users.
STRUCTURAL = {
    "_analyze_rows", "_canonical_form", "_blocks", "_build_rows", "_corner_rows", "decompose", "idempotency_index"
}
# The helpers both routes call, each named with the reason it decides nothing about
# membership. The routes share none today; the set of shared helpers must equal this.
ALLOWED_SHARED: dict[str, str] = {}


def _codes(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _codes(const)


def _package_functions(obj):
    """The package functions that naming ``obj`` can call: itself, or every method of a package class."""
    obj = getattr(obj, "__wrapped__", obj)
    if isinstance(obj, FunctionType):
        return [obj] if obj.__globals__.get("__name__", "").startswith("kidempotent") else []
    if isinstance(obj, type) and obj.__module__.startswith("kidempotent"):
        methods = []
        for value in vars(obj).values():
            if isinstance(value, property):
                methods += [f for f in (value.fget, value.fset, value.fdel) if f is not None]
            else:
                methods += _package_functions(getattr(value, "__func__", value))
        return methods
    return []


def reached(*roots) -> set[str]:
    """Qualified names of every package function reachable from ``roots``, the roots included."""
    seen, todo = {}, list(roots)
    while todo:
        func = todo.pop()
        key = (func.__globals__["__name__"], func.__qualname__)
        if key in seen:
            continue
        seen[key] = func
        for code in _codes(func.__code__):
            for name in code.co_names:
                todo += _package_functions(func.__globals__.get(name))
    return {qualname for _, qualname in seen}


def crossings() -> list[str]:
    """Every forbidden crossing between the routes, described; empty when they are independent."""
    power, structural = reached(*POWER_ROOTS), reached(*STRUCTURAL_ROOTS)
    found = [f"power route reaches {name}" for name in sorted(power & STRUCTURAL)]
    found += [f"structural route reaches {name}" for name in sorted((power & structural) - set(ALLOWED_SHARED))]
    found += [f"{name} is allowed to be shared but is not" for name in sorted(set(ALLOWED_SHARED) - (power & structural))]
    return found


def test_routes_share_only_the_allowed_helpers():
    assert crossings() == []


def test_a_stale_exemption_fails(monkeypatch):
    monkeypatch.setitem(ALLOWED_SHARED, "_require_k", "rejects k < 2 before any work")
    assert crossings() == ["_require_k is allowed to be shared but is not"]


def test_the_walk_sees_each_route():
    power, structural = reached(*POWER_ROOTS), reached(*STRUCTURAL_ROOTS)
    # calls through a lambda passed to _power, and a method of a named class
    assert {"_excluded", "_lane_mul", "_sat_mul_rows", "_power", "_require_k", "StructureError.__init__"} <= power
    assert {"_analyze_rows", "_reorder_rows", "_corner_rows", "ProductNotZeroOne.__init__"} <= structural


def planted(module, callee: str):
    """A function of ``module`` that calls ``callee`` by its global name there, as code in it would."""
    namespace = {}
    exec(f"def planted(*args):\n    return {callee}(*args)\n", vars(module), namespace)
    return namespace["planted"]


@pytest.mark.parametrize(
    "module, victim, callee, expected",
    [
        (oracle, "_excluded", "_analyze_rows", "power route reaches _analyze_rows"),
        (structure, "_corner_rows", "_sat_power_rows", "structural route reaches _sat_power_rows"),
    ],
)
def test_a_planted_crossing_fails(monkeypatch, module, victim, callee, expected):
    monkeypatch.setattr(module, callee, getattr(structure, callee), raising=False)
    monkeypatch.setattr(module, victim, planted(module, callee))
    assert expected in crossings()
