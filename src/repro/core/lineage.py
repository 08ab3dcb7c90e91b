"""The cracker lineage graph (Figures 5 and 6 of the paper).

"Cracking the database into pieces should be complemented with information
to reconstruct its original state ... we have to administer the lineage of
each piece, i.e. its source and the Ξ, Ψ, ^ or Ω operators applied"
(§3.2).  This module records that DAG: base relations are roots, cracker
applications create operation nodes whose children are the pieces, and
reconstruction walks the current leaves to rebuild any ancestor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import CrackError
from repro.storage.table import Relation

#: Operator tags, matching the paper's notation.
OP_XI = "Ξ"
OP_PSI = "Ψ"
OP_WEDGE = "^"
OP_OMEGA = "Ω"
_VALID_OPS = (OP_XI, OP_PSI, OP_WEDGE, OP_OMEGA)


@dataclass
class LineageNode:
    """One piece (or base table) in the lineage DAG.

    Attributes:
        node_id: stable identifier, e.g. ``"R"`` or ``"R[3]"``.
        relation: the piece's data.
        produced_by: the operation that created this piece (None for roots).
        origin: the specific source piece this piece derives from.  A ^
            operation has two sources; its R-side outputs originate from
            the R source only, which is what reconstruction must follow.
        children_ops: operations that have consumed this piece.
    """

    node_id: str
    relation: Relation
    produced_by: "CrackOperation | None" = None
    origin: "LineageNode | None" = None
    children_ops: list["CrackOperation"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True if no cracker has consumed this piece yet."""
        return not self.children_ops


@dataclass
class CrackOperation:
    """One application of a cracker operator.

    Attributes:
        op: one of Ξ, Ψ, ^, Ω.
        params: human-readable description (predicate, attribute list...).
        sources: the input piece(s).
        outputs: the produced piece(s).
    """

    op: str
    params: str
    sources: list[LineageNode]
    outputs: list[LineageNode] = field(default_factory=list)


def _row_multiset(relation: Relation) -> Counter:
    return Counter(relation.iter_rows())


class LineageGraph:
    """Registry of pieces and the cracker operations connecting them."""

    def __init__(self) -> None:
        self._nodes: dict[str, LineageNode] = {}
        self._sequence: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_base(self, relation: Relation) -> LineageNode:
        """Register a base (virgin) table as a root node."""
        if relation.name in self._nodes:
            raise CrackError(f"lineage node {relation.name!r} already exists")
        node = LineageNode(node_id=relation.name, relation=relation)
        self._nodes[node.node_id] = node
        self._sequence[relation.name] = 0
        return node

    def record(
        self,
        op: str,
        params: str,
        sources: list[LineageNode],
        pieces: list[Relation],
    ) -> list[LineageNode]:
        """Record one cracker application and return the new piece nodes.

        Piece node ids follow the paper's figures: cracking ``R`` produces
        ``R[1]``, ``R[2]``, ...; cracking ``R[2]`` continues the numbering
        of the base table ``R``.
        """
        if op not in _VALID_OPS:
            raise CrackError(f"unknown cracker operator {op!r}")
        for source in sources:
            if source.node_id not in self._nodes:
                raise CrackError(f"source {source.node_id!r} not in lineage graph")
            if not source.is_leaf:
                raise CrackError(
                    f"piece {source.node_id!r} was already cracked; "
                    "only leaves can be cracked further"
                )
        operation = CrackOperation(op=op, params=params, sources=list(sources))
        outputs = []
        for piece_relation, source in zip(
            pieces, self._spread_sources(sources, len(pieces))
        ):
            base = self._base_of(source)
            self._sequence[base] += 1
            node_id = f"{base}[{self._sequence[base]}]"
            node = LineageNode(
                node_id=node_id,
                relation=piece_relation,
                produced_by=operation,
                origin=source,
            )
            self._nodes[node_id] = node
            outputs.append(node)
        operation.outputs = outputs
        for source in sources:
            source.children_ops.append(operation)
        return outputs

    @staticmethod
    def _spread_sources(sources: list[LineageNode], n_pieces: int) -> list[LineageNode]:
        """Attribute each output piece to a source for numbering purposes.

        Ξ/Ψ/Ω have one source; ^ has two sources and alternating halves of
        the outputs (P1, P2 from R; P3, P4 from S).
        """
        if len(sources) == 1:
            return [sources[0]] * n_pieces
        if len(sources) == 2 and n_pieces == 4:
            return [sources[0], sources[0], sources[1], sources[1]]
        half = n_pieces // len(sources)
        spread = []
        for source in sources:
            spread.extend([source] * half)
        while len(spread) < n_pieces:
            spread.append(sources[-1])
        return spread

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def nodes(self) -> list[LineageNode]:
        return list(self._nodes.values())

    def _descends_from(self, piece: LineageNode, ancestor: LineageNode) -> bool:
        """True if ``piece``'s origin chain passes through ``ancestor``."""
        current: LineageNode | None = piece
        while current is not None:
            if current.node_id == ancestor.node_id:
                return True
            current = current.origin
        return False

    def _base_of(self, node: LineageNode) -> str:
        current = node
        while current.origin is not None:
            current = current.origin
        return current.node_id

    # ------------------------------------------------------------------ #
    # Reconstruction (the loss-less property of §3.1)
    # ------------------------------------------------------------------ #

    def reconstruct(self, node: LineageNode) -> Relation:
        """Rebuild ``node``'s relation from its current leaf pieces.

        Horizontal crackers (Ξ, ^, Ω) invert through a union; the vertical
        Ψ-cracker inverts through a 1:1 surrogate join on the ``_oid``
        column its pieces carry.
        """
        if node.is_leaf:
            return node.relation
        operation = node.children_ops[0]
        mine = [
            self.reconstruct(output)
            for output in operation.outputs
            if self._descends_from(output, node)
        ]
        if operation.op == OP_PSI:
            rebuilt = psi_inverse(node.relation.name, mine[0], mine[1])
        else:
            rebuilt = union_pieces(node.relation.name, mine)
        return _reorder_columns(rebuilt, node.relation)

    def verify_lossless(self, node: LineageNode) -> bool:
        """True if reconstruction equals the node's relation as a multiset."""
        rebuilt = self.reconstruct(node)
        return _row_multiset(rebuilt) == _row_multiset(node.relation)


def _reorder_columns(rebuilt: Relation, template: Relation) -> Relation:
    """Reorder ``rebuilt``'s columns to match ``template``'s schema order.

    Ψ-inverse concatenates the two vertical pieces' columns, which may
    permute the original order; union keeps piece order.  Reconstruction
    equality is defined over the template's column order.
    """
    if rebuilt.schema.names() == template.schema.names():
        return rebuilt
    if set(rebuilt.schema.names()) != set(template.schema.names()):
        raise CrackError(
            f"reconstruction produced columns {rebuilt.schema.names()}, "
            f"expected {template.schema.names()}"
        )
    data = {name: rebuilt.column_values(name) for name in template.schema.names()}
    return Relation.from_columns(template.name, template.schema, data)


def union_pieces(name: str, pieces: list[Relation]) -> Relation:
    """Multiset union of horizontally cracked pieces."""
    if not pieces:
        raise CrackError("cannot union zero pieces")
    schema = pieces[0].schema
    for piece in pieces[1:]:
        if piece.schema.names() != schema.names():
            raise CrackError(
                f"union over incompatible schemas: {schema.names()} "
                f"vs {piece.schema.names()}"
            )
    rows: list[tuple] = []
    for piece in pieces:
        rows.extend(piece.iter_rows())
    return Relation.from_rows(name, schema, rows)


def psi_inverse(name: str, projected: Relation, rest: Relation) -> Relation:
    """Invert Ψ-cracking: 1:1 natural join of the two vertical pieces on _oid."""
    if "_oid" not in projected.schema or "_oid" not in rest.schema:
        raise CrackError("Ψ pieces must carry a _oid surrogate column")
    by_oid = {}
    rest_names = [c for c in rest.schema.names() if c != "_oid"]
    oid_index_rest = rest.schema.names().index("_oid")
    for row in rest.iter_rows():
        values = tuple(v for i, v in enumerate(row) if i != oid_index_rest)
        by_oid[row[oid_index_rest]] = values
    oid_index = projected.schema.names().index("_oid")
    joined_rows = []
    for row in projected.iter_rows():
        oid = row[oid_index]
        if oid not in by_oid:
            raise CrackError(f"Ψ inverse: oid {oid} missing from the rest piece")
        left_values = tuple(v for i, v in enumerate(row) if i != oid_index)
        joined_rows.append(left_values + by_oid[oid])
    from repro.storage.table import Column, Schema  # local import to avoid cycle

    columns = [c for c in projected.schema.columns if c.name != "_oid"]
    columns += [c for c in rest.schema.columns if c.name != "_oid"]
    return Relation.from_rows(name, Schema(columns), joined_rows)
