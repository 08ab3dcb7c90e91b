"""The execution gateway: where the server's coroutines call the engine.

The engine is synchronous and lock-based (per-column reader–writer
locks, relation write locks, the durability barrier); the server's I/O
is a single asyncio loop.  Every engine call a session makes goes
through :meth:`ExecutionGateway.run`, which has two ways to make it:

* **inline** — call the function right there, on the event-loop thread,
  and return.  A converged cracked query answers in ~150 µs; handing it
  to a worker thread and waking the loop again costs about as much as
  the query, and on one core the threads only take turns anyway.  This
  is what :class:`~repro.server.server.ReproServer` picks for a single
  worker without a statement timeout — the default.  The price: while a
  statement runs, nothing else on the loop does.
* **threaded** — ``run_in_executor`` onto a bounded pool, so a cracking
  write in one session interleaves with snapshot reads in another as
  in the embedded concurrent case, and the loop stays free.  It is the
  path for what needs a second thread: a timeout (the caller must be
  able to give up on a call that is still running) and ``pool_size``
  > 1.  The pool is created on first use.

Book-keeping is the same either way.  Admission control bites only in
threaded mode: at most ``pool_size`` statements run, at most
``max_pending`` may be admitted and unfinished, past that the gateway
raises :class:`~repro.errors.OverloadedError` — a typed ``overloaded``
reply — instead of queueing unboundedly.  An inline call is finished
before the next can be admitted, so ``pending`` never passes 1.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor

from repro.errors import OverloadedError, StatementTimeoutError


class ExecutionGateway:
    """Bounded bridge from the event loop into the engine.

    Args:
        pool_size: worker threads, i.e. maximum statements in flight.
        max_pending: maximum statements admitted but not yet finished
            (running + queued).  0 disables the bound.
        statement_timeout: seconds after which a statement's *caller*
            gives up (None = no timeout).  The worker thread finishes
            the engine call in the background — a thread cannot be
            killed mid-crack without corrupting the column — but its
            result is discarded and the session gets a typed timeout.
        inline: run calls that carry no timeout on the calling thread
            instead of a worker (see the module docstring).
    """

    def __init__(
        self,
        pool_size: int = 4,
        max_pending: int = 64,
        statement_timeout: float | None = None,
        inline: bool = False,
    ) -> None:
        if pool_size < 1:
            raise OverloadedError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self.max_pending = max_pending
        self.statement_timeout = statement_timeout
        self.inline = inline
        self._pool: ThreadPoolExecutor | None = None
        self._pending = 0
        self.executed = 0
        self.timeouts = 0
        self.rejected = 0
        self.peak_pending = 0

    async def run(self, fn, *args, timeout: float | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` and return its result.

        Raises :class:`OverloadedError` when the pending bound is hit
        and :class:`StatementTimeoutError` past the timeout (the
        per-call ``timeout`` overrides the gateway default).
        """
        if self.max_pending and self._pending >= self.max_pending:
            self.rejected += 1
            raise OverloadedError(
                f"server overloaded: {self._pending} statements pending "
                f"(bound {self.max_pending}); retry later"
            )
        limit = self.statement_timeout if timeout is None else timeout
        if self.inline and limit is None:
            self._pending += 1
            self.peak_pending = max(self.peak_pending, self._pending)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pending -= 1
            self.executed += 1
            return result
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.pool_size, thread_name_prefix="repro-gateway"
            )
        future = asyncio.get_running_loop().run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )
        self._pending += 1
        self.peak_pending = max(self.peak_pending, self._pending)
        # Released when the *engine call* finishes, not when the caller
        # gives up: a timed-out statement still occupies a worker, and
        # admission control must keep counting it or max_pending stops
        # bounding real work.  The callback runs on the loop thread and
        # consumes the zombie's exception so it is never logged as
        # unretrieved.
        future.add_done_callback(self._release)
        if limit is None:
            # No timeout: await directly — wait_for + shield cost real
            # microseconds per statement, which pipelined workloads feel.
            result = await future
            self.executed += 1
            return result
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
            "pool_size": self.pool_size,
            "inline": self.inline,
            "max_pending": self.max_pending,
            "statement_timeout": self.statement_timeout,
            "pending": self._pending,
            "peak_pending": self.peak_pending,
            "executed": self.executed,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool, if one was ever started (after
        in-flight calls finish)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
