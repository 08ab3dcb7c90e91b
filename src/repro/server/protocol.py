"""The wire protocol: length-prefixed frames and typed messages.

Framing
    Every message — request or reply — is one *frame*: a 4-byte
    big-endian unsigned length followed by that many bytes of payload.
    A payload starting with ``{`` is UTF-8 JSON encoding one object
    (every request, and every reply except bulk results); a payload
    starting with the :data:`_BINARY_MARKER` byte is a binary columnar
    result frame (below).  Frames larger than :data:`MAX_FRAME_BYTES`
    are rejected on both sides, and a compressed body may not inflate
    past the same bound, so neither peer can force more than that onto
    the other.

Messages
    Objects carry a ``"type"`` discriminator.  Requests:
    ``hello`` ``query`` ``prepare`` ``execute`` ``deallocate``
    ``begin`` ``commit`` ``abort`` ``stats`` ``metrics``
    ``timeseries`` ``close``.
    Replies: ``hello`` ``result`` ``prepared`` ``closed`` ``queued``
    ``begun`` ``committed`` ``aborted`` ``stats`` ``metrics``
    ``timeseries`` ``goodbye`` and the typed ``error`` reply (``code``
    + ``message``; see :data:`ERROR_CODES`).  A ``metrics`` reply
    carries the Prometheus-style text exposition of every metric layer
    (engine registry + gateway + server) in its ``"exposition"``
    field; a ``timeseries`` reply carries the server's metrics-ring
    snapshot (see :mod:`repro.obs.timeseries`) in its ``"payload"``.

Version negotiation
    There is one protocol, :data:`PROTOCOL_VERSION`.  HELLO still
    advertises a version *list* (``"versions": [2]``; a peer that sends
    only the legacy scalar ``"protocol"`` field is read as a
    one-element list, :func:`hello_versions`), and an offer without
    this build's version gets a typed ``protocol`` error naming both
    offers instead of a hang.

Binary columnar results
    A query result past :data:`SMALL_RESULT_ROWS` ships as numpy column
    buffers instead of per-row JSON.  Each binary frame is
    ``marker, kind, flags, pad`` +
    a 4-byte header length + a small JSON header (column names, per
    column encoding/dtype/byte-size, row count, varchar dictionaries)
    + the concatenated raw column bodies (``ndarray.tobytes()``,
    decoded zero-copy with ``np.frombuffer`` on the far side).  A
    result that fits one frame is a single ``FULL`` frame; larger
    results *stream* as bounded ``CHUNK`` frames closed by an ``END``
    trailer carrying the totals, so arbitrarily large SELECTs cross
    the wire without a giant allocation on either peer
    (:func:`encode_result_frames` / :class:`ResultAssembler`).  Bodies
    past :data:`COMPRESS_MIN_BYTES` are zlib-compressed per frame when
    HELLO negotiated it (wide varchar columns shrink drastically).
    Every header and descriptor field of an incoming frame is
    type- and range-checked: a malformed frame is a
    :class:`ProtocolError`, never a ``KeyError`` or a wild allocation.

Wire safety
    Query results carry numpy scalars (``np.int64`` / ``np.float64`` /
    ``np.str_``) that ``json.dumps`` rejects.  :func:`wire_value` /
    :func:`wire_rows` convert them to plain Python values; the protocol
    encoder and the ``repro sql`` printer both go through it, so the
    two surfaces render identical values.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.errors import (
    CatalogError,
    CrackError,
    OverloadedError,
    PersistError,
    ProtocolError,
    ReproError,
    ServerError,
    SQLAnalysisError,
    SQLSyntaxError,
    StatementTimeoutError,
    TransactionError,
)

#: The one protocol this build speaks: JSON messages, binary columnar
#: bulk results, chunked streaming, negotiated compression.
PROTOCOL_VERSION = 2

#: Compression codecs this build can apply to binary result-frame bodies.
SUPPORTED_COMPRESSIONS = ("zlib",)

#: Upper bound on one frame (requests and replies alike) and on the
#: inflated body of a compressed one.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Target payload size for one result chunk (bounds peak memory per
#: frame on both peers; well under MAX_FRAME_BYTES).
DEFAULT_CHUNK_BYTES = 1 << 20

#: Binary frame bodies below this stay raw even when compression was
#: negotiated — zlib on tiny payloads costs more than it saves.
COMPRESS_MIN_BYTES = 4096

#: Results at or below this many rows go over the wire as plain
#: JSON: numpy columnarisation only amortises on
#: bulk results, and for a one-row count(*) the binary codec costs
#: more on both peers than it saves.  The client's payload dispatch is
#: byte-driven, so mixing shapes per reply is free.
SMALL_RESULT_ROWS = 16

_LENGTH = struct.Struct("!I")

#: First payload byte of a binary frame.  JSON payloads always start
#: with ``{`` (0x7b), so one byte disambiguates the two shapes.
_BINARY_MARKER = 0x00

_KIND_FULL = 1   # a complete result in one frame
_KIND_CHUNK = 2  # one column-batch of a streamed result
_KIND_END = 3    # trailer closing a chunk stream (totals, no body)

_FLAG_COMPRESSED = 0x01

#: marker, kind, flags, pad, header-length — prefix of a binary payload.
_BIN_HEAD = struct.Struct("!BBBxI")

#: The typed error vocabulary.  Servers only ever send these codes, so
#: clients can switch on them without string-matching messages.
ERROR_CODES = (
    "syntax",        # SQL failed to tokenise/parse
    "analysis",      # SQL failed semantic analysis
    "catalog",       # unknown/duplicate table and friends
    "persist",       # durability layer refused the statement
    "transaction",   # BEGIN/COMMIT/ABORT protocol violation
    "crack",         # cracking-layer invariant violation
    "engine",        # any other engine-side ReproError
    "timeout",       # statement exceeded the server's timeout
    "overloaded",    # admission control rejected the work
    "protocol",      # malformed frame or message
    "shutting_down", # server is draining; no new work accepted
    "internal",      # unexpected non-Repro exception (bug shield)
)

_EXCEPTION_CODES: tuple[tuple[type, str], ...] = (
    (SQLSyntaxError, "syntax"),
    (SQLAnalysisError, "analysis"),
    (CatalogError, "catalog"),
    (PersistError, "persist"),
    (TransactionError, "transaction"),
    (CrackError, "crack"),
    (StatementTimeoutError, "timeout"),
    (OverloadedError, "overloaded"),
    (ProtocolError, "protocol"),
    (ServerError, "engine"),
    (ReproError, "engine"),
)


# ---------------------------------------------------------------------- #
# Wire-safe values
# ---------------------------------------------------------------------- #


def wire_value(value):
    """A JSON-serialisable Python value for one result cell.

    Engine rows mix Python values with numpy scalars (vectorized
    pipelines hand back ``np.int64`` etc.), and ``json.dumps`` raises
    ``TypeError`` on the latter.  Floats stay floats, ints ints,
    strings strings — the conversion is value-preserving, which is what
    lets the differential tests demand byte-equal JSON between
    embedded and served execution.
    """
    if isinstance(value, np.generic):
        return value.item()
    return value


def wire_row(row) -> list:
    """One result row as a JSON-ready list."""
    return [wire_value(value) for value in row]


def wire_rows(rows) -> list[list]:
    """All result rows as JSON-ready lists."""
    return [wire_row(row) for row in rows]


# ---------------------------------------------------------------------- #
# HELLO negotiation
# ---------------------------------------------------------------------- #


def hello_versions(message: dict) -> list[int]:
    """The protocol versions a HELLO message advertises.

    Peers send ``"versions": [...]``; one that sends only the legacy
    scalar ``"protocol"`` field is read as offering that one version.
    """
    versions = message.get("versions")
    if versions is None:
        versions = [message.get("protocol")]
    if not isinstance(versions, (list, tuple)):
        raise ProtocolError("'versions' must be an array when present")
    return [v for v in versions if isinstance(v, int)]


def negotiate_compression(
    message: dict, supported=SUPPORTED_COMPRESSIONS
) -> str | None:
    """First mutually supported codec from HELLO's ``"compression"`` list."""
    offered = message.get("compression")
    if not isinstance(offered, (list, tuple)):
        return None
    for codec in offered:
        if codec in supported:
            return codec
    return None


# ---------------------------------------------------------------------- #
# Reply constructors
# ---------------------------------------------------------------------- #


def result_reply(result) -> dict:
    """The ``result`` reply for a completed statement."""
    return {
        "type": "result",
        "columns": list(result.columns),
        "rows": wire_rows(result.rows),
        "affected": int(result.affected),
    }


def error_reply(code: str, message: str) -> dict:
    """A typed ``error`` reply."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {"type": "error", "code": code, "message": message}


def error_for_exception(exc: BaseException) -> dict:
    """Map an engine/server exception onto its typed error reply."""
    for exc_type, code in _EXCEPTION_CODES:
        if isinstance(exc, exc_type):
            return error_reply(code, str(exc))
    return error_reply("internal", f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------- #
# Binary columnar results
# ---------------------------------------------------------------------- #


def _encode_column(values) -> tuple[dict, bytes]:
    """One result column as ``(descriptor, raw bytes)``.

    Three encodings, chosen by content:

    * ``ndarray`` — numeric/bool columns ship as raw ``tobytes()`` with
      their dtype string; the receiver maps them back zero-copy.
    * ``dict`` — varchar columns (str and NULL) ship their unique
      values once in the header plus int32 codes in the body (NULL is
      code -1): the classic dictionary encoding, and what makes wide
      repetitive varchar columns cheap on the wire.
    * ``json`` — anything else (mixed-type columns, e.g. numerics with
      NULLs) falls back to a wire-safe JSON array body.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):  # ragged/oversized: JSON fallback
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind in "biuf":
        return {"enc": "ndarray", "dtype": arr.dtype.str, "size": arr.nbytes}, (
            arr.tobytes()
        )
    if all(value is None or isinstance(value, str) for value in values):
        uniques: dict[str, int] = {}
        codes = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            if value is None:
                codes[i] = -1
            else:
                value = str(value)  # np.str_ -> str for the JSON header
                codes[i] = uniques.setdefault(value, len(uniques))
        descriptor = {
            "enc": "dict",
            "values": list(uniques),
            "size": codes.nbytes,
        }
        return descriptor, codes.tobytes()
    payload = json.dumps([wire_value(v) for v in values]).encode("utf-8")
    return {"enc": "json", "size": len(payload)}, payload


def _loads(data, what: str):
    """``json.loads`` with every failure typed (deep nesting included)."""
    try:
        return json.loads(bytes(data).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from None


def _field(mapping, key: str, kind: type):
    """A required header/descriptor field of JSON type ``kind``."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(
            f"binary frame field {key!r} is missing or not {kind.__name__}"
        )
    return value


def _decode_column(descriptor, body, offset: int):
    """Inverse of :func:`_encode_column`: ``(numpy array | None, values)``."""
    size = _field(descriptor, "size", int)
    if size < 0 or offset + size > len(body):
        raise ProtocolError("binary frame column overruns the frame body")
    chunk = body[offset:offset + size]
    enc = descriptor.get("enc")
    try:
        if enc == "ndarray":
            dtype = np.dtype(_field(descriptor, "dtype", str))
            if dtype.kind not in "biuf":
                raise ProtocolError(f"column dtype {dtype.str!r} is not numeric")
            arr = np.frombuffer(chunk, dtype=dtype)
            return arr, arr.tolist()
        if enc == "dict":
            codes = np.frombuffer(chunk, dtype=np.int32)
            lookup = _field(descriptor, "values", list)
            if codes.size and (codes.min() < -1 or codes.max() >= len(lookup)):
                raise ProtocolError("dictionary code outside its value list")
            return None, [lookup[c] if c >= 0 else None for c in codes.tolist()]
    except (TypeError, ValueError) as exc:  # bad dtype string, ragged size
        raise ProtocolError(f"undecodable {enc} column: {exc}") from None
    if enc == "json":
        values = _loads(chunk, "json column")
        if not isinstance(values, list):
            raise ProtocolError("json column body must be an array")
        return None, values
    raise ProtocolError(f"unknown column encoding {enc!r}")


def _pack_binary(kind: int, header: dict, body: bytes, compression) -> bytes:
    """One complete binary frame (length prefix included); the cap
    applies to the *uncompressed* frame, because the decoder refuses to
    inflate a body past it."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head = _BIN_HEAD.size + len(header_bytes)
    if head + len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame of {head + len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; lower the chunk size"
        )
    flags = 0
    if compression == "zlib" and len(body) >= COMPRESS_MIN_BYTES:
        squeezed = zlib.compress(body, 1)
        if len(squeezed) < len(body):  # incompressible bodies stay raw
            body, flags = squeezed, _FLAG_COMPRESSED
    return (
        _LENGTH.pack(head + len(body))
        + _BIN_HEAD.pack(_BINARY_MARKER, kind, flags, len(header_bytes))
        + header_bytes
        + body
    )


def _result_frame(kind: int, columns, rows, extra: dict, compression) -> bytes:
    """Encode ``rows`` (FULL or CHUNK) into one binary frame."""
    descriptors = []
    parts = []
    for index, name in enumerate(columns):
        descriptor, payload = _encode_column([row[index] for row in rows])
        descriptors.append(descriptor)
        parts.append(payload)
    header = {"columns": list(columns), "cols": descriptors, "rows": len(rows)}
    header.update(extra)
    return _pack_binary(kind, header, b"".join(parts), compression)


def _estimate_chunk_rows(columns, rows, chunk_bytes: int) -> int:
    """Rows per chunk so one frame's body lands near ``chunk_bytes``."""
    if not rows or not columns:
        return max(1, len(rows))
    sample = rows[0]
    per_row = 0
    for value in sample:
        per_row += len(value) + 8 if isinstance(value, str) else 8
    return max(1, chunk_bytes // max(per_row, 1))


def encode_result_frames(
    result,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_rows: int | None = None,
    compression: str | None = None,
):
    """Yield the binary frame(s) carrying one bulk query result.

    A result whose rows fit one chunk becomes a single ``FULL`` frame;
    anything larger streams as ``CHUNK`` frames closed by an ``END``
    trailer with the totals — no frame ever materialises the whole
    result, which is how SELECTs far past :data:`MAX_FRAME_BYTES`
    cross the wire.
    """
    columns = list(result.columns)
    rows = result.rows
    affected = int(result.affected)
    if chunk_rows is None:
        chunk_rows = _estimate_chunk_rows(columns, rows, chunk_bytes)
    if len(rows) <= chunk_rows:
        yield _result_frame(
            _KIND_FULL, columns, rows, {"affected": affected}, compression
        )
        return
    chunks = 0
    for start in range(0, len(rows), chunk_rows):
        chunks += 1
        yield _result_frame(
            _KIND_CHUNK,
            columns,
            rows[start:start + chunk_rows],
            {"seq": chunks},
            compression,
        )
    yield _pack_binary(
        _KIND_END,
        {
            "columns": columns,
            "affected": affected,
            "rows": len(rows),
            "chunks": chunks,
        },
        b"",
        None,
    )


def _inflate(body) -> bytes:
    """Bounded zlib inflate: at most :data:`MAX_FRAME_BYTES` come out."""
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(body, MAX_FRAME_BYTES)
    except zlib.error as exc:
        raise ProtocolError(f"corrupt compressed frame body: {exc}") from None
    if not inflater.eof:
        raise ProtocolError(
            f"compressed frame body is truncated or inflates past the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return data


def _decode_binary(payload: bytes) -> dict:
    """A binary frame payload as a message dict (see module docstring)."""
    if len(payload) < _BIN_HEAD.size:
        raise ProtocolError("binary frame payload is truncated")
    _, kind, flags, header_len = _BIN_HEAD.unpack_from(payload)
    header_end = _BIN_HEAD.size + header_len
    header = _loads(payload[_BIN_HEAD.size:header_end], "binary frame header")
    columns = _field(header, "columns", list)
    if not all(isinstance(name, str) for name in columns):
        raise ProtocolError("binary frame column names must be strings")
    if kind == _KIND_END:
        return {
            "type": "result_end",
            "columns": columns,
            "affected": _field(header, "affected", int),
            "rows": _field(header, "rows", int),
            "chunks": _field(header, "chunks", int),
        }
    if kind not in (_KIND_FULL, _KIND_CHUNK):
        raise ProtocolError(f"unknown binary frame kind {kind}")
    descriptors = _field(header, "cols", list)
    if len(descriptors) != len(columns):
        raise ProtocolError(
            f"binary frame names {len(columns)} columns but describes "
            f"{len(descriptors)}"
        )
    n_rows = _field(header, "rows", int)
    body = memoryview(payload)[header_end:]  # np.frombuffer sees it zero-copy
    if flags & _FLAG_COMPRESSED:
        body = memoryview(_inflate(body))
    arrays = {}
    value_lists = []
    offset = 0
    for name, descriptor in zip(columns, descriptors):
        arr, values = _decode_column(descriptor, body, offset)
        offset += descriptor["size"]
        if arr is not None:
            arrays[name] = arr
        value_lists.append(values)
    if any(len(values) != n_rows for values in value_lists):
        raise ProtocolError("binary frame column lengths disagree")
    rows = list(zip(*value_lists)) if value_lists else []
    message = {
        "type": "result" if kind == _KIND_FULL else "result_chunk",
        "columns": columns,
        "rows": rows,
        "arrays": arrays,
    }
    if kind == _KIND_FULL:
        message["affected"] = _field(header, "affected", int)
    else:
        message["seq"] = header.get("seq")
    return message


class ResultAssembler:
    """Client-side reassembly of a chunked result stream.

    Feed it decoded messages; non-result messages pass straight
    through, a ``FULL`` result passes through, and a chunk stream is
    buffered until its ``END`` trailer arrives, at which point one
    logical ``result`` message (rows concatenated, numeric column
    arrays re-joined) is returned.  A trailer whose totals disagree
    with what actually arrived — a torn stream — raises
    :class:`ProtocolError`; a typed ``error`` arriving mid-stream
    discards the partial result and passes the error through.
    """

    def __init__(self) -> None:
        self._chunks: list[dict] = []

    @property
    def mid_stream(self) -> bool:
        return bool(self._chunks)

    def feed(self, message: dict) -> dict | None:
        """One decoded message in; a complete logical message or None out."""
        kind = message.get("type")
        if kind == "result_chunk":
            expected = len(self._chunks) + 1
            if message.get("seq") != expected:
                raise ProtocolError(
                    f"torn result stream: expected chunk {expected}, "
                    f"got {message.get('seq')!r}"
                )
            self._chunks.append(message)
            return None
        if kind == "result_end":
            chunks, self._chunks = self._chunks, []
            if len(chunks) != message["chunks"]:
                raise ProtocolError(
                    f"torn result stream: trailer announces "
                    f"{message['chunks']} chunks, received {len(chunks)}"
                )
            rows: list = []
            for chunk in chunks:
                rows.extend(chunk["rows"])
            if len(rows) != message["rows"]:
                raise ProtocolError(
                    f"torn result stream: trailer announces {message['rows']} "
                    f"rows, received {len(rows)}"
                )
            arrays = {}
            if chunks:
                for name in chunks[0]["arrays"]:
                    if all(name in chunk["arrays"] for chunk in chunks):
                        arrays[name] = np.concatenate(
                            [chunk["arrays"][name] for chunk in chunks]
                        )
            return {
                "type": "result",
                "columns": message["columns"],
                "rows": rows,
                "affected": message["affected"],
                "arrays": arrays,
            }
        if self._chunks:
            if kind in ("error", "goodbye"):
                self._chunks = []  # either supersedes the partial result
                return message
            raise ProtocolError(
                f"{kind!r} message interleaved into a result chunk stream"
            )
        return message


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #


def encode_frame(message: dict) -> bytes:
    """Serialise one message into its length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame's payload (JSON or binary) into a message dict.

    Binary result frames (first byte :data:`_BINARY_MARKER`) decode via
    the columnar codec; everything else must be a JSON object — and may
    not claim a chunk-stream type, whose fields only the binary decoder
    validates.
    """
    if payload and payload[0] == _BINARY_MARKER:
        return _decode_binary(payload)
    message = _loads(payload, "frame payload")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if message.get("type") in ("result_chunk", "result_end"):
        raise ProtocolError(
            f"{message['type']!r} messages must arrive as binary frames"
        )
    return message


def _frame_length(prefix) -> int:
    (length,) = _LENGTH.unpack_from(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


class FrameDecoder:
    """Incremental frame decoder for stream transports (the client core).

    Feed it byte chunks as they arrive; it yields complete messages and
    buffers partial frames across calls::

        decoder = FrameDecoder()
        for message in decoder.feed(sock.recv(65536)):
            ...
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            end = _LENGTH.size + _frame_length(self._buffer)
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))


async def read_frame(reader) -> dict | None:
    """Read one request frame from an asyncio stream (None on clean EOF).

    Server side only.  Requests are always JSON, so a binary frame is
    refused undecoded: a client cannot make the server inflate anything.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LENGTH.size)
        payload = await reader.readexactly(_frame_length(header))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    if payload and payload[0] == _BINARY_MARKER:
        raise ProtocolError("requests must be JSON frames, got a binary frame")
    return decode_payload(payload)


async def write_frame(writer, message: dict) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(message))
    await writer.drain()
