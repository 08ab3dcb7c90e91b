"""Provenance metadata stamped into every perf-ledger report.

A benchmark number without its environment is unreproducible: a
regression hunt needs to know whether two reports came from the same
machine shape, numpy build and source revision before comparing their
timings.  :func:`collect_meta` gathers exactly that — cheap, dependency
free, and safe to call from any bench (every field degrades to ``None``
rather than raising when the information is unavailable, e.g. a source
tarball without git).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time


def git_revision(cwd: str | None = None) -> str | None:
    """The current source revision, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


def collect_meta() -> dict:
    """One JSON-safe dict describing the bench environment.

    Keys: ``timestamp`` (ISO-8601 UTC), ``cpus``, ``python``,
    ``numpy``, ``platform``, ``machine`` and ``git_rev``.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_rev": git_revision(),
        "argv": list(sys.argv),
    }
