"""Core contribution: cracking kernels, index, cracked column, operators, lineage."""

from repro.core.crack import (
    KIND_LE,
    KIND_LT,
    CrackStats,
    crack_in_three,
    crack_in_three_via_two,
    crack_in_two,
    crack_in_two_swaps,
)
from repro.core.cracked_column import (
    DEFAULT_CRACK_THRESHOLD,
    CrackedColumn,
    QueryStats,
    SelectionResult,
)
from repro.core.cracker_index import Boundary, CrackerIndex, Piece
from repro.core.crackers import (
    CrackResult,
    omega_crack,
    psi_crack,
    wedge_crack,
    xi_crack_range,
    xi_crack_theta,
)
from repro.core.lineage import (
    OP_OMEGA,
    OP_PSI,
    OP_WEDGE,
    OP_XI,
    CrackOperation,
    LineageGraph,
    LineageNode,
    psi_inverse,
    union_pieces,
)

__all__ = [
    "Boundary",
    "CrackOperation",
    "CrackResult",
    "CrackStats",
    "CrackedColumn",
    "CrackerIndex",
    "DEFAULT_CRACK_THRESHOLD",
    "KIND_LE",
    "KIND_LT",
    "LineageGraph",
    "LineageNode",
    "OP_OMEGA",
    "OP_PSI",
    "OP_WEDGE",
    "OP_XI",
    "Piece",
    "QueryStats",
    "SelectionResult",
    "crack_in_three",
    "crack_in_three_via_two",
    "crack_in_two",
    "crack_in_two_swaps",
    "omega_crack",
    "psi_crack",
    "psi_inverse",
    "union_pieces",
    "wedge_crack",
    "xi_crack_range",
    "xi_crack_theta",
]
