"""The statement governor: a per-statement deadline the engine checks.

A cracker leaves its column valid after every crack (paper §3), and a
mutation writes nothing before its matcher has run, so a statement can
stop at any of the engine's own boundaries with nothing to undo:

* the start of a statement's run (``Database._run``);
* before each binding's cracked or plain scan (``build_plan``);
* before a join's build sort and before each ``join_probe``;
* after a DML statement's matcher, a SELECT … INTO's plan, and an
  INSERT … SELECT's SELECT and its row conversion: before the first
  write, create or WAL append.

:func:`check` raises :class:`~repro.errors.StatementTimeoutError` at
those points once the calling thread's :func:`deadline` has passed.  A
stopped SELECT leaves valid columns, a stopped mutation never reaches
the WAL, and a stopped transaction batch rolls back.  The deadline lives
in a :class:`~contextvars.ContextVar`, so it binds to the thread that
set it: another thread sharing the ``Database`` runs without one.  The
work between two boundaries (one numpy kernel, or an INSERT … SELECT's
row conversion) can overrun the deadline by its own length.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.errors import StatementTimeoutError

#: ``(monotonic deadline, the timeout it was set from)``, or None.
_DEADLINE: ContextVar["tuple[float, float] | None"] = ContextVar(
    "repro_deadline", default=None
)


def check() -> None:
    """Raise :class:`StatementTimeoutError` once this thread's deadline
    has passed; without one, a single ``ContextVar.get``."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() >= deadline[0]:
        raise StatementTimeoutError(
            f"statement exceeded the {deadline[1]}s timeout; it was stopped "
            "and had no effect"
        )


@contextmanager
def deadline(seconds: float):
    """Statements the calling thread runs in this block stop at the
    first boundary past ``seconds`` from now."""
    token = _DEADLINE.set((time.monotonic() + seconds, seconds))
    try:
        yield
    finally:
        _DEADLINE.reset(token)
