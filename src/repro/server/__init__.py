"""Network service layer: wire protocol, sessions, TCP server.

The serving pipeline, bottom up:

* :mod:`repro.server.protocol` — length-prefixed frames (JSON
  messages, binary columnar bulk results) and typed error replies;
* :mod:`repro.server.session` — per-connection prepared-statement
  handles and deferred BEGIN/COMMIT/ABORT transactions; a session calls
  the engine itself, inline on the server's loop thread, each statement
  under the server's statement timeout (a deadline the engine checks at
  its own boundaries);
* :mod:`repro.server.server` — the TCP server, one ``selectors`` loop
  with admission control, per-connection backpressure and graceful
  checkpointing shutdown (plus :class:`ServerThread` for in-process
  embedding); it holds the statement timeout and counters STATS reports.

The matching client library is :mod:`repro.client`; the rest of the
codec (result frames, reassembly, typed errors) is imported from
:mod:`repro.server.protocol`.
"""

from repro.server.protocol import FrameDecoder, encode_frame
from repro.server.server import ReproServer, ServerThread
from repro.server.session import ClientSession

__all__ = [
    "ClientSession",
    "FrameDecoder",
    "ReproServer",
    "ServerThread",
    "encode_frame",
]
