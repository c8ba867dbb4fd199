"""k-idempotent 0-1 matrices: structure, density extremes, verification.

A square 0-1 matrix A is k-idempotent (k >= 2) when A^k = A. Such
matrices are exactly the relabelings of a three-block canonical form
built from a zero source block, a direct sum of cycles whose lengths
divide k - 1, and a zero sink block; and the number of ones they can
carry is capped by an explicit function gamma of the order. This
package computes with those facts and verifies them exhaustively at
small orders, by two independent routes: the saturating power
(``matrix01.sat_power``, with ``exact_power`` as its exact integer
reference) and the structural certification (``structure.decompose``).
``extremal`` builds the densest members; ``oracle.census`` decides every
matrix of an order by power, certifies each member by structure and
closes the check by a count. The names that live only in ``extremal``,
and the submodule itself, are loaded on first access.
"""

import importlib

from . import matrix01, oracle, structure
from .matrix01 import *
from .oracle import *
from .structure import *

__version__ = "0.1.0"

# Each submodule's __all__ declares its public names. The names that only
# extremal defines are listed here, since reading extremal.__all__ would load it.
__all__ = [
    "extremal", "matrix01", "oracle", "structure", *matrix01.__all__, *oracle.__all__, *structure.__all__,
    "ExtremalParams", "InvalidParams", "ValidationFailed", "construct_extremal", "extremal_families", "family_line",
    "is_extremal",
]  # fmt: skip


def __getattr__(name: str):
    """Load :mod:`kidempotent.extremal`, the family enumerator, on first access to it or to a name only it defines."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    extremal = importlib.import_module(".extremal", __name__)
    return extremal if name == "extremal" else getattr(extremal, name)
