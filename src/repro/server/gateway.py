"""The execution gateway: where the server's loop calls the engine.

Every request that calls the engine is answered through the gateway,
and one rule says where it runs.  With no statement timeout (the
default) :meth:`ExecutionGateway.run` calls it inline, on the loop
thread: a converged query answers in ~150 µs, about what a hop to a
worker and back costs, and a pool of four workers lost to inline
serving at every client count.  A statement timeout needs a second
thread, because the caller must be able to give up on a call that is
still running: :meth:`ExecutionGateway.submit` runs calls on one worker
thread, and the loop stays free while they do.

Either way no two engine calls run at once.  At most ``max_pending``
calls may be admitted and unfinished; past that the gateway raises
:class:`~repro.errors.OverloadedError` (a typed ``overloaded`` reply)
instead of queueing unboundedly.  An inline call finishes before the
next is admitted, so the bound bites only on the worker.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from repro.errors import OverloadedError, SettingError, StatementTimeoutError


class ExecutionGateway:
    """Bounded bridge from the server's loop into the engine.

    Args:
        max_pending: maximum calls admitted but not yet finished
            (running + queued).  0 disables the bound.
        statement_timeout: seconds after which a call's *caller* gives
            up (None = no timeout, and calls run inline).  The worker
            finishes the engine call in the background — a thread cannot
            be killed mid-crack without corrupting the column — but its
            result is discarded and the session gets a typed timeout.
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
        self.inline = statement_timeout is None
        self._worker: ThreadPoolExecutor | None = None
        # A worker call holds its slot until the *engine call* finishes,
        # not until its caller gives up: a timed-out call still occupies
        # the worker, and max_pending must keep counting it.
        self._calls: list[Future] = []
        self._running_inline = 0
        self.executed = 0
        self.timeouts = 0
        self.rejected = 0
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return self._running_inline + sum(not call.done() for call in self._calls)

    def _admit(self) -> None:
        pending = self.pending
        if self.max_pending and pending >= self.max_pending:
            self.rejected += 1
            raise OverloadedError(
                f"server overloaded: {pending} statements pending "
                f"(bound {self.max_pending}); retry later"
            )
        self.peak_pending = max(self.peak_pending, pending + 1)

    def run(self, fn, *args):
        """Run ``fn(*args)`` on the calling thread and return its result.

        Raises :class:`OverloadedError` when the pending bound is hit.
        """
        self._admit()
        self._running_inline += 1
        try:
            result = fn(*args)
        finally:
            self._running_inline -= 1
        self.executed += 1
        return result

    def submit(self, fn, *args, wake) -> Future:
        """Start ``fn(*args)`` on the worker thread and return its future.

        ``wake()`` is called, on the worker, once the call has finished;
        :meth:`collect` reads the result or gives up on it.  Raises
        :class:`OverloadedError` when the pending bound is hit.
        """
        self._admit()
        if self._worker is None:
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-gateway"
            )
        future = self._worker.submit(fn, *args)
        future.add_done_callback(lambda _: wake())
        self._calls = [call for call in self._calls if not call.done()] + [future]
        return future

    def collect(self, future: Future, started: float, now: float):
        """The result of a worker call started at ``started``, None while
        it runs within the timeout, :class:`StatementTimeoutError` once
        it is overdue (the caller gives up; the call runs on)."""
        if future.done():
            self.executed += 1
            return future.result()
        if now - started < self.statement_timeout:
            return None
        self.timeouts += 1
        raise StatementTimeoutError(
            f"statement exceeded the {self.statement_timeout}s timeout (the "
            "engine call completes in the background; its result is "
            "discarded)"
        )

    def stats(self) -> dict:
        """Counter snapshot for the STATS reply and monitoring."""
        return {
            "inline": self.inline,
            "max_pending": self.max_pending,
            "statement_timeout": self.statement_timeout,
            "pending": self.pending,
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
