"""The execution gateway: where the server's loop calls the engine.

Every request that calls the engine runs inline, on the server's one
loop thread, through :meth:`ExecutionGateway.run`: a converged query
answers in ~150 µs, about what a hop to a worker and back costs, and a
pool of four workers lost to inline serving at every client count.  One
engine call finishes before the next is taken up, so nothing queues and
nothing is refused.

A statement timeout is a deadline, not a second thread: the session
sets it around each statement (:func:`repro.governor.deadline`), and the
engine stops the statement at its next boundary past it, with no effect.
The gateway holds the timeout and the books STATS and METRICS report.
"""

from __future__ import annotations

from repro.errors import SettingError


class ExecutionGateway:
    """The statement timeout and the engine-call counters.

    Args:
        statement_timeout: seconds a statement may run before the engine
            stops it (None = no deadline).
    """

    def __init__(self, statement_timeout: float | None = None) -> None:
        if statement_timeout is not None and not statement_timeout > 0:
            raise SettingError(
                "statement_timeout", "> 0 seconds or None", statement_timeout
            )
        self.statement_timeout = statement_timeout
        self.executed = 0
        self.timeouts = 0  # counted by the sessions
        self.peak_pending = 0

    def run(self, fn, *args):
        """Run ``fn(*args)`` on the calling thread and return its result."""
        self.peak_pending = 1  # the call itself; none waits behind it
        result = fn(*args)
        self.executed += 1
        return result

    def stats(self) -> dict:
        """Counter snapshot for the STATS reply and monitoring.

        ``peak_pending`` and ``rejected`` keep the keys monitors read:
        with every call inline, they read 1 (once a call ran) and 0.
        """
        return {
            "statement_timeout": self.statement_timeout,
            "peak_pending": self.peak_pending,
            "executed": self.executed,
            "timeouts": self.timeouts,
            "rejected": 0,
        }
