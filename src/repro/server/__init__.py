"""Network service layer: wire protocol, sessions, gateway, TCP server.

The serving pipeline, bottom up:

* :mod:`repro.server.protocol` — length-prefixed frames (JSON
  messages, binary columnar bulk results) and typed error replies;
* :mod:`repro.server.gateway` — where the server's loop calls the
  RW-locked engine: inline on the loop thread, or on one worker thread
  when a statement timeout is set;
* :mod:`repro.server.session` — per-connection prepared-statement
  handles and deferred BEGIN/COMMIT/ABORT transactions;
* :mod:`repro.server.server` — the TCP server, one ``selectors`` loop
  with admission control, per-connection backpressure and graceful
  checkpointing shutdown (plus :class:`ServerThread` for in-process
  embedding).

The matching client library is :mod:`repro.client`.
"""

from repro.server.gateway import ExecutionGateway
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ResultAssembler,
    encode_frame,
    encode_result_frames,
    error_for_exception,
    error_reply,
    result_reply,
)
from repro.server.server import ReproServer, ServerThread
from repro.server.session import ClientSession

__all__ = [
    "ClientSession",
    "ExecutionGateway",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ReproServer",
    "ResultAssembler",
    "ServerThread",
    "encode_frame",
    "encode_result_frames",
    "error_for_exception",
    "error_reply",
    "result_reply",
]
