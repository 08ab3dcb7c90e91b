"""The execution gateway: where the server's coroutines call the engine.

The engine is synchronous and lock-based (per-column reader–writer
locks, relation write locks, the durability barrier); the server's I/O
is a single asyncio loop.  Every engine call a session makes goes
through :meth:`ExecutionGateway.run`, and one rule says where it runs:

* **inline** — with no statement timeout (the default), the call runs
  right there, on the event-loop thread.  A converged cracked query
  answers in ~150 µs; handing it to a worker thread and waking the loop
  again costs about as much as the query, and measured against a pool
  of four workers inline serving won at every client count.  The price:
  while a statement runs, nothing else on the loop does.
* **one worker** — a statement timeout needs a second thread, because
  the caller must be able to give up on a call that is still running.
  Calls then run on a single worker thread, created on first use, and
  the loop stays free while they do.

Either way no two engine calls run at once.  Book-keeping is the same
for both.  At most ``max_pending`` calls may be admitted and unfinished;
past that the gateway raises :class:`~repro.errors.OverloadedError` — a
typed ``overloaded`` reply — instead of queueing unboundedly.  An inline
call is finished before the next can be admitted, so ``pending`` never
passes 1 and the bound bites only on the worker.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor

from repro.errors import OverloadedError, SettingError, StatementTimeoutError


class ExecutionGateway:
    """Bounded bridge from the event loop into the engine.

    Args:
        max_pending: maximum statements admitted but not yet finished
            (running + queued).  0 disables the bound.
        statement_timeout: seconds after which a statement's *caller*
            gives up (None = no timeout, and calls run inline).  The
            worker finishes the engine call in the background — a
            thread cannot be killed mid-crack without corrupting the
            column — but its result is discarded and the session gets a
            typed timeout.
    """

    def __init__(
        self, max_pending: int = 64, statement_timeout: float | None = None
    ) -> None:
        if max_pending < 0:
            raise SettingError("max_pending", ">= 0 (0 = unbounded)", max_pending)
        if statement_timeout is not None and not statement_timeout > 0:
            raise SettingError(
                "statement_timeout", "> 0 seconds or None", statement_timeout
            )
        self.max_pending = max_pending
        self.statement_timeout = statement_timeout
        self._worker: ThreadPoolExecutor | None = None
        self._pending = 0
        self.executed = 0
        self.timeouts = 0
        self.rejected = 0
        self.peak_pending = 0

    async def run(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` and return its result.

        Raises :class:`OverloadedError` when the pending bound is hit
        and :class:`StatementTimeoutError` past the statement timeout.
        """
        if self.max_pending and self._pending >= self.max_pending:
            self.rejected += 1
            raise OverloadedError(
                f"server overloaded: {self._pending} statements pending "
                f"(bound {self.max_pending}); retry later"
            )
        limit = self.statement_timeout
        if limit is None:
            self._pending += 1
            self.peak_pending = max(self.peak_pending, self._pending)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pending -= 1
            self.executed += 1
            return result
        if self._worker is None:
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-gateway"
            )
        future = asyncio.get_running_loop().run_in_executor(
            self._worker, functools.partial(fn, *args, **kwargs)
        )
        self._pending += 1
        self.peak_pending = max(self.peak_pending, self._pending)
        # Released when the *engine call* finishes, not when the caller
        # gives up: a timed-out statement still occupies the worker, and
        # admission control must keep counting it or max_pending stops
        # bounding real work.  The callback runs on the loop thread and
        # consumes the zombie's exception so it is never logged as
        # unretrieved.
        future.add_done_callback(self._release)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), timeout=limit
            )
        except asyncio.TimeoutError:
            self.timeouts += 1
            raise StatementTimeoutError(
                f"statement exceeded the {limit}s timeout (the engine "
                "call completes in the background; its result is "
                "discarded)"
            ) from None
        self.executed += 1
        return result

    def _release(self, future) -> None:
        self._pending -= 1
        if not future.cancelled():
            future.exception()  # consume: abandoned calls may have raised

    def stats(self) -> dict:
        """Counter snapshot for the STATS reply and monitoring."""
        return {
            "inline": self.statement_timeout is None,
            "max_pending": self.max_pending,
            "statement_timeout": self.statement_timeout,
            "pending": self._pending,
            "peak_pending": self.peak_pending,
            "executed": self.executed,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker, if one was ever started (after in-flight
        calls finish)."""
        if self._worker is not None:
            self._worker.shutdown(wait=wait)
