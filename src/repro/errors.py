"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing storage-, SQL- and cracking-level problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Raised for storage-layer violations (BATs, heaps, pages)."""


class BATTypeError(StorageError):
    """Raised when an operation receives a BAT of an incompatible type."""


class BATAlignmentError(StorageError):
    """Raised when two BATs that must be head-aligned are not."""


class HeapError(StorageError):
    """Raised for variable-sized atom heap violations."""


class PageError(StorageError):
    """Raised for buffer-pool / page-layer violations."""


class CatalogError(ReproError):
    """Raised for catalog violations (unknown table, duplicate name...)."""


class PersistError(ReproError):
    """Raised for durability-layer violations (snapshots, WAL, recovery)."""


class TransactionError(ReproError):
    """Raised for transaction protocol violations."""


class CrackError(ReproError):
    """Raised for cracking-layer violations."""


class CrackerIndexError(CrackError):
    """Raised when the cracker index is navigated or mutated inconsistently."""


class SQLError(ReproError):
    """Base class for errors in the SQL front-end."""


class SQLSyntaxError(SQLError):
    """Raised when the SQL text cannot be tokenised or parsed."""


class SQLAnalysisError(SQLError):
    """Raised when a parsed query fails semantic analysis."""


class PlanError(ReproError):
    """Raised when the planner or optimizer cannot produce a plan."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class BenchmarkError(ReproError):
    """Raised for invalid multi-query benchmark specifications."""


class ServerError(ReproError):
    """Base class for network service layer errors (server and client)."""


class ProtocolError(ServerError):
    """Raised when a wire frame or message violates the protocol."""


class OverloadedError(ServerError):
    """Raised when admission control rejects work (queue/pool full)."""


class SettingError(ServerError):
    """A server setting that would make the server refuse all work."""

    def __init__(self, setting: str, requirement: str, value) -> None:
        super().__init__(f"{setting} must be {requirement}, got {value!r}")
        self.setting = setting


class StatementTimeoutError(ServerError):
    """Raised when a statement exceeds the server's statement timeout."""


class ServerUnavailableError(ServerError):
    """Raised by the client when the server cannot be (re)reached."""


class AmbiguousResultError(ServerError):
    """A mutation's outcome is unknown: the connection died mid-request.

    The statement may or may not have been applied server-side, so the
    client must not silently retry it (a re-apply would double-insert /
    double-delete).  The caller decides: check server state, or re-issue
    explicitly if the statement is idempotent.
    """


class RemoteError(ServerError):
    """A typed error reply from the server, surfaced client-side.

    ``code`` is the wire error code (e.g. ``"syntax"``, ``"catalog"``,
    ``"timeout"``); the message is the server's description.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
