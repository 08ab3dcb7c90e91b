"""Network service layer: wire protocol, sessions, gateway, TCP server.

The serving pipeline, bottom up:

* :mod:`repro.server.protocol` — length-prefixed frames (JSON
  messages, binary columnar bulk results) and typed error replies;
* :mod:`repro.server.gateway` — where the server's loop calls the
  engine (one statement at a time): inline on the loop thread, or on
  one worker thread when a statement timeout is set;
* :mod:`repro.server.session` — per-connection prepared-statement
  handles and deferred BEGIN/COMMIT/ABORT transactions;
* :mod:`repro.server.server` — the TCP server, one ``selectors`` loop
  with admission control, per-connection backpressure and graceful
  checkpointing shutdown (plus :class:`ServerThread` for in-process
  embedding).

The matching client library is :mod:`repro.client`; the rest of the
codec (result frames, reassembly, typed errors) is imported from
:mod:`repro.server.protocol`.
"""

from repro.server.gateway import ExecutionGateway
from repro.server.protocol import FrameDecoder, encode_frame
from repro.server.server import ReproServer, ServerThread
from repro.server.session import ClientSession

__all__ = [
    "ClientSession",
    "ExecutionGateway",
    "FrameDecoder",
    "ReproServer",
    "ServerThread",
    "encode_frame",
]
