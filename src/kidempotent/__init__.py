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
``extremal`` builds the densest members and ``oracle.census`` runs
both routes over every matrix of an order.
"""

from .extremal import (
    ExtremalParams,
    InvalidParams,
    ValidationFailed,
    allowed_boundary_counts,
    construct_extremal,
    extremal_families,
    family_line,
    gamma,
    is_extremal,
    matches_maximum_form,
)
from .matrix01 import (
    Matrix01,
    MatrixFormatError,
    Permutation,
    exact_power,
    from_text,
    nnz,
    permute,
    sat_power,
    to_text,
)
from .oracle import (
    CensusReport,
    census,
    enumerate_k_idempotent,
    matrix_from_index,
    serialize_census,
    structural_count,
)
from .structure import (
    CanonicalDecomposition,
    ComposeError,
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

__version__ = "0.1.0"
