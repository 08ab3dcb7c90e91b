"""The four cracker operators of §3.1: Ξ, Ψ, ^ and Ω.

These are the *logical* crackers — they take relations and produce disjoint
pieces, exactly as defined in the paper:

* ``Ξ(σ_pred(R))`` — two pieces for one-sided predicates, three for
  double-sided ranges (regaining the consecutive-values property);
* ``Ψ(π_attr(R))`` — two vertical pieces, each carrying a duplicate-free
  surrogate (oid) for loss-less 1:1 reconstruction;
* ``^(R ⋈ S)`` — four pieces: the semijoin matches and non-matches of
  both operands;
* ``Ω(γ_grp(R))`` — one piece per group value.

All four are loss-less; :mod:`repro.core.lineage` implements the inverses.
The *physical* in-place counterpart used by the engines is
:class:`repro.core.cracked_column.CrackedColumn`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lineage import OP_OMEGA, OP_PSI, OP_WEDGE, OP_XI
from repro.errors import CrackError
from repro.storage.table import Column, Relation, Schema

#: Comparison operators accepted by the Ξ-cracker (paper: θ ∈ {<,>,<=,>=,=,!=}).
THETA_OPS = ("<", "<=", ">", ">=", "=", "!=")


@dataclass
class CrackResult:
    """Outcome of one cracker application.

    Attributes:
        op: operator tag (Ξ/Ψ/^/Ω).
        params: human-readable parameters.
        pieces: the disjoint output relations, in the paper's P1..Pn order.
    """

    op: str
    params: str
    pieces: list[Relation]

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def _numeric_column(relation: Relation, attr: str) -> np.ndarray:
    column = relation.column(attr)
    if column.tail_type == "str":
        raise CrackError(f"Ξ-cracking requires a numeric attribute, {attr!r} is str")
    return column.tail_array()


def xi_crack_theta(relation: Relation, attr: str, theta: str, constant) -> CrackResult:
    """Ξ-cracking for ``attr θ cst``: P1 = σ_pred(R), P2 = σ_¬pred(R).

    Point selections (= and !=) are supported but, as the paper notes,
    they forfeit the consecutive-range property; range θ keep it.
    """
    if theta not in THETA_OPS:
        raise CrackError(f"unsupported θ {theta!r}; expected one of {THETA_OPS}")
    values = _numeric_column(relation, attr)
    if theta == "<":
        mask = values < constant
    elif theta == "<=":
        mask = values <= constant
    elif theta == ">":
        mask = values > constant
    elif theta == ">=":
        mask = values >= constant
    elif theta == "=":
        mask = values == constant
    else:
        mask = values != constant
    qualifying = np.flatnonzero(mask)
    rest = np.flatnonzero(~mask)
    pieces = [
        relation.horizontal_fragment(qualifying, f"{relation.name}#P1"),
        relation.horizontal_fragment(rest, f"{relation.name}#P2"),
    ]
    return CrackResult(op=OP_XI, params=f"{attr} {theta} {constant}", pieces=pieces)


def xi_crack_range(relation: Relation, attr: str, low, high) -> CrackResult:
    """Ξ-cracking for ``attr ∈ [low, high]``: three pieces.

    P1 = σ_{attr<low}(R), P2 = σ_{attr∈[low,high]}(R), P3 = σ_{attr>high}(R)
    — the paper's second version of selection cracking that re-gains the
    consecutive-ranges property (§3.1).  Point selections are the special
    case ``low == high``.
    """
    if high < low:
        raise CrackError(f"invalid range: low={low!r} > high={high!r}")
    values = _numeric_column(relation, attr)
    below = np.flatnonzero(values < low)
    middle = np.flatnonzero((values >= low) & (values <= high))
    above = np.flatnonzero(values > high)
    pieces = [
        relation.horizontal_fragment(below, f"{relation.name}#P1"),
        relation.horizontal_fragment(middle, f"{relation.name}#P2"),
        relation.horizontal_fragment(above, f"{relation.name}#P3"),
    ]
    return CrackResult(
        op=OP_XI, params=f"{attr} in [{low}, {high}]", pieces=pieces
    )


def psi_crack(relation: Relation, attrs: list[str]) -> CrackResult:
    """Ψ-cracking: vertical split into π_attr(R) and the complement.

    Both pieces carry a duplicate-free surrogate ``_oid`` so the original
    is reconstructible through a natural 1:1 join (§3.1).
    """
    for attr in attrs:
        relation.schema.column(attr)  # validates
    rest_attrs = [name for name in relation.schema.names() if name not in attrs]
    if not rest_attrs:
        raise CrackError("Ψ-cracking needs at least one attribute in the complement")
    oids = list(range(len(relation)))

    def vertical(names: list[str], label: str) -> Relation:
        schema = Schema(
            [Column("_oid", "int")] + [relation.schema.column(n) for n in names]
        )
        data: dict = {"_oid": oids}
        for name in names:
            data[name] = relation.column_values(name)
        return Relation.from_columns(f"{relation.name}#{label}", schema, data)

    pieces = [vertical(list(attrs), "P1"), vertical(rest_attrs, "P2")]
    return CrackResult(op=OP_PSI, params=f"π[{', '.join(attrs)}]", pieces=pieces)


def wedge_crack(
    left: Relation, right: Relation, left_key: str, right_key: str
) -> CrackResult:
    """^-cracking for ``R ⋈ S``: four pieces.

    P1 = R ⋉ S (tuples of R with a join partner), P2 = R − P1,
    P3 = S ⋉ R, P4 = S − P3 (§3.1).  P1/P3 feed the join without touching
    non-matching tuples; P2/P4 are exactly the outer-join complements.
    """
    left_values = _numeric_column(left, left_key)
    right_values = _numeric_column(right, right_key)
    left_matches = np.isin(left_values, right_values)
    right_matches = np.isin(right_values, left_values)
    pieces = [
        left.horizontal_fragment(np.flatnonzero(left_matches), f"{left.name}#P1"),
        left.horizontal_fragment(np.flatnonzero(~left_matches), f"{left.name}#P2"),
        right.horizontal_fragment(np.flatnonzero(right_matches), f"{right.name}#P3"),
        right.horizontal_fragment(np.flatnonzero(~right_matches), f"{right.name}#P4"),
    ]
    return CrackResult(
        op=OP_WEDGE,
        params=f"{left.name}.{left_key} = {right.name}.{right_key}",
        pieces=pieces,
    )


def omega_crack(relation: Relation, group_attr: str) -> CrackResult:
    """Ω-cracking for ``γ_grp(R)``: one piece per singleton group value.

    The pieces are ordered by group value so the result is deterministic.
    """
    column = relation.column(group_attr)
    if column.tail_type == "str":
        groups = sorted(set(column.tail_values()))
        raw = np.asarray(column.tail_values(), dtype=object)
    else:
        raw = column.tail_array()
        groups = sorted(set(raw.tolist()))
    pieces = []
    for value in groups:
        positions = np.flatnonzero(raw == value)
        pieces.append(
            relation.horizontal_fragment(
                positions, f"{relation.name}#G{len(pieces) + 1}"
            )
        )
    return CrackResult(op=OP_OMEGA, params=f"group by {group_attr}", pieces=pieces)
