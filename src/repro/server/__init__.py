"""Network service layer: wire protocol, sessions, gateway, TCP server.

The serving pipeline, bottom up:

* :mod:`repro.server.protocol` — length-prefixed frames (JSON
  messages, binary columnar bulk results), typed error replies,
  wire-safe value conversion;
* :mod:`repro.server.gateway` — where coroutines call the RW-locked
  engine: inline on the loop thread, or on a bounded thread pool;
* :mod:`repro.server.session` — per-connection prepared-statement
  handles and deferred BEGIN/COMMIT/ABORT transactions;
* :mod:`repro.server.server` — the asyncio TCP server with admission
  control, per-connection backpressure and graceful checkpointing
  shutdown (plus :class:`ServerThread` for in-process embedding).

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
    wire_row,
    wire_rows,
    wire_value,
    write_frame,
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
    "wire_row",
    "wire_rows",
    "wire_value",
    "write_frame",
]
