"""A fixed-interval ring buffer of scalar metric samples.

The metrics registry answers "what is the state *now*"; this module
answers "how is it *moving*".  A :class:`TimeSeries` holds the last N
snapshots of a flat ``{key: number}`` sample dict, stamped with the
wall-clock time they were taken, and computes deltas and per-second
rates between samples — which is how a monotonically growing counter
(statements executed, cracks performed) becomes a live qps / cracks-per-
second readout without the engine maintaining any windowed state.

The server samples its engine once per interval
(:class:`~repro.server.server.ReproServer` owns the sampler thread) and
serves the ring over the ``timeseries`` wire message; ``repro top``
renders it.  The ring itself is transport-agnostic and thread-safe, so
tests and embedded monitors can drive it directly.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["TimeSeries", "rates"]

#: Samples a ring retains (oldest drop): 10 minutes of history at
#: :data:`INTERVAL_S`.  Read when a ring is built.
CAPACITY = 600

#: The sampling period in seconds.  The server sleeps it between
#: samples; a snapshot reports it so readers can label the x-axis (the
#: ring never sleeps itself).
INTERVAL_S = 1.0


class TimeSeries:
    """Thread-safe ring of the last :data:`CAPACITY` timestamped flat
    scalar samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=CAPACITY)
        self._taken = 0

    def record(self, sample: dict, at: float | None = None) -> None:
        """Append one sample (flat ``{key: int|float}``; non-numbers drop)."""
        stamped = {"t": time.time() if at is None else float(at)}
        for key, value in sample.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            stamped[key] = value
        with self._lock:
            self._samples.append(stamped)
            self._taken += 1

    def snapshot(self, last: int | None = None) -> dict:
        """The ring as one JSON-safe dict (the ``timeseries`` wire payload).

        ``last`` trims to the most recent that many samples (the monitor
        only needs a screenful; the full ring can be 600 samples wide).
        """
        with self._lock:
            samples = list(self._samples)
            taken = self._taken
        if last is not None and last >= 0:
            samples = samples[-last:]
        return {
            "interval": INTERVAL_S,
            "capacity": self._samples.maxlen,
            "taken": taken,
            "samples": samples,
        }


def rates(samples: list[dict]) -> dict:
    """Per-second rates between the last two samples of a snapshot list.

    For every numeric key present in both of the two most recent samples
    the delta is divided by the elapsed wall time; with fewer than two
    samples (or no elapsed time) the result is empty.  Counters that
    reset (negative delta) clamp to 0.0 rather than reporting nonsense.
    """
    if len(samples) < 2:
        return {}
    previous, latest = samples[-2], samples[-1]
    elapsed = latest.get("t", 0.0) - previous.get("t", 0.0)
    if elapsed <= 0:
        return {}
    out: dict[str, float] = {}
    for key, value in latest.items():
        if key == "t" or key not in previous:
            continue
        delta = value - previous[key]
        out[key] = delta / elapsed if delta > 0 else 0.0
    return out
