"""Copy-on-write transaction snapshots over BATs.

The MonetDB cracker "relies on the transaction manager to not overwrite
the original until commit" (§3.4.2): the Ξ shuffle happens in the original
storage area, and isolation is guaranteed by keeping a pre-image.  This
module reproduces that contract with explicit snapshots: a transaction
registers every BAT it will mutate, which copies its pre-image, and
abort restores it byte-for-byte.  :meth:`Database.execute_transaction
<repro.sql.session.Database.execute_transaction>` is its one user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TransactionError
from repro.storage.bat import BAT


@dataclass
class _PreImage:
    """Saved state of one BAT at registration time."""

    tail: np.ndarray
    head: np.ndarray | None
    count: int
    sorted: bool


class Transaction:
    """One transaction's write set of mutated BATs: :meth:`protect`
    each before mutating it, then :meth:`commit` or :meth:`rollback`."""

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.state = "active"
        self._pre_images: dict[int, tuple[BAT, _PreImage]] = {}

    def protect(self, bat: BAT) -> None:
        """Snapshot ``bat`` before in-place mutation (idempotent)."""
        if self.state != "active":
            raise TransactionError(f"transaction {self.txn_id} is {self.state}")
        key = id(bat)
        if key in self._pre_images:
            return
        head = bat._head
        self._pre_images[key] = (
            bat,
            _PreImage(
                tail=bat.tail_array().copy(),
                head=None if head is None else head[: len(bat)].copy(),
                count=len(bat),
                sorted=bat._sorted,
            ),
        )

    def commit(self) -> None:
        """Make all in-place mutations durable; pre-images are dropped."""
        if self.state != "active":
            raise TransactionError(f"cannot commit a {self.state} transaction")
        self._pre_images.clear()
        self.state = "committed"

    def rollback(self) -> None:
        """Restore every protected BAT to its pre-image."""
        if self.state != "active":
            raise TransactionError(f"cannot rollback a {self.state} transaction")
        for bat, image in self._pre_images.values():
            bat._ensure_capacity(image.count)
            bat._tail[: image.count] = image.tail
            bat._count = image.count
            if image.head is None:
                bat._head = None
            else:
                bat._head = image.head.copy()
            bat._sorted = image.sorted
        self._pre_images.clear()
        self.state = "aborted"
