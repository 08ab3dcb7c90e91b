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
    column encoding/dtype/byte-size, row count, varchar dictionaries;
    space-padded to a multiple of 8 bytes so the body starts aligned)
    + the concatenated raw column bodies (array buffers, joined once;
    decoded zero-copy with ``np.frombuffer`` on the far side).  A
    result within :data:`CHUNK_BYTES` is a single ``FULL`` frame; larger
    results *stream* as bounded ``CHUNK`` frames closed by an ``END``
    trailer carrying the totals, so arbitrarily large SELECTs cross
    the wire without a giant allocation on either peer
    (:func:`encode_result_frames` / :class:`ResultAssembler`).  Bodies
    cross the wire raw unless HELLO negotiated a codec — our clients
    offer one only with ``compression=True``, since zlib-1 (~105 MB/s)
    loses to any link past ~50 MB/s; the server accepts any offer of a
    codec it supports — and then those past :data:`COMPRESS_MIN_BYTES`
    are zlib-compressed per frame.
    Every header and descriptor field of an incoming frame is
    type- and range-checked: a malformed frame is a
    :class:`ProtocolError`, never a ``KeyError`` or a wild allocation.

Wire safety
    Result cells are plain ``int``/``float``/``str``/``None`` (see
    :class:`~repro.sql.session.QueryResult`), so the JSON reply encoder
    and the ``repro sql`` printer use them as they are.
"""

from __future__ import annotations

import json
import struct
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii

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
#: frame on both peers; well under MAX_FRAME_BYTES).  Read at encode
#: time, so a test can lower it to reach the chunked path cheaply.
CHUNK_BYTES = 1 << 20

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


def _compact_encoder():
    """The one compact JSON encoder every frame goes through, built once:
    ``json.dumps`` (and ``JSONEncoder.encode``) builds one per call, half
    the cost of a small reply.  Same bytes; it skips only the
    circular-reference check, which messages of plain values never need.
    It is CPython's C encoder, which every interpreter the project runs
    on (CPython 3.10+) ships in ``_json``."""
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
    )
    return lambda value: "".join(encode(value, 0))


_ENCODE = _compact_encoder()
_SCAN = json.JSONDecoder().scan_once  # decode() without its two regex passes

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
        "rows": result.rows,
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


def _plan_column(array: np.ndarray, coded=None) -> tuple:
    """One result column readied for framing, as ``(enc, data, lookup,
    total, cost)``.  Three encodings, chosen by content:

    * ``ndarray`` — numeric/bool columns ship as their raw buffer with
      their dtype string; the receiver maps them back zero-copy.
    * ``dict`` — varchar columns (str and NULL) ship their distinct
      values once in the header plus int32 codes in the body (NULL is
      code -1), which makes wide repetitive varchar columns cheap.  A
      column that arrives with its heap codes (``coded``, from
      :attr:`QueryResult.codes`) is renumbered to the atoms it uses by
      one ``bincount`` (no gather if it uses every atom up to its
      largest code), with no loop over rows; any other column — a join,
      sort or aggregate output, or one holding NULLs — is coded row by
      row.
    * ``json`` — anything else (mixed types, e.g. numerics with NULLs)
      falls back to one JSON text per cell.

    ``total`` is the column's cost on the wire in bytes; ``cost`` prices
    a row: an int when uniform, one count per row for ``json``, one per
    code for ``dict`` (NULL's -1 picks the trailing 0; an atom is charged
    to every row using it, so a sum bounds any chunk from above).
    """
    if array.dtype.kind in "biuf":
        return "ndarray", np.ascontiguousarray(array), None, array.nbytes, array.itemsize
    if coded is not None:
        codes, atoms = coded
        counts = np.bincount(codes)
        used = np.flatnonzero(counts)
        if used.size < counts.size:  # each used code -> its rank among them
            codes, counts = (np.cumsum(counts > 0, dtype=np.int32) - 1)[codes], counts[used]
        codes, lookup = np.ascontiguousarray(codes, np.int32), atoms[used].tolist()
    else:
        values = array.tolist()
        atoms: dict = {None: -1}
        coding = (atoms.setdefault(value, len(atoms) - 1) for value in values)
        codes = np.fromiter(coding, dtype=np.int32, count=len(values))
        del atoms[None]
        if not all(isinstance(atom, str) for atom in atoms):
            texts = [json.dumps(value) for value in values]
            sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) + 1
            return "json", texts, None, int(sizes.sum()), sizes
        lookup = [str(atom) for atom in atoms]  # np.str_ -> str for the header
        counts = np.bincount(codes + 1, minlength=len(lookup) + 1)[1:]
    # An atom's header text: what json.dumps returns for a str, priced
    # without json.dumps's per-call dispatch.
    cost = np.array(
        [len(encode_basestring_ascii(atom)) + 1 for atom in lookup] + [0], dtype=np.int64
    )
    total = 4 * codes.size + int(counts @ cost[:-1])
    return "dict", codes, lookup, total, cost


def _column_part(plan: tuple, start: int, stop: int) -> tuple[dict, object]:
    """Rows ``[start, stop)`` of a planned column as ``(descriptor,
    body)``, the body a contiguous buffer.  Bodies are concatenated
    unpadded behind the 8-aligned header, so an odd-length int32 ``dict``
    column ahead of an int64 column still misaligns the latter."""
    enc, data, lookup, _, _ = plan
    part = data[start:stop]
    if enc == "ndarray":
        return {"enc": enc, "dtype": part.dtype.str, "size": part.nbytes}, part
    if enc == "dict":
        if len(part) < len(data):  # a chunk names only the atoms it uses
            used, part = np.unique(part, return_inverse=True)
            nulls = int(used.size > 0 and used[0] < 0)
            lookup = [lookup[code] for code in used[nulls:].tolist()]
            part = (part - nulls).astype(np.int32)
        return {"enc": enc, "values": lookup, "size": part.nbytes}, part
    payload = ("[" + ",".join(part) + "]").encode("utf-8")
    return {"enc": enc, "size": len(payload)}, payload


def _loads(data, what: str):
    """The JSON value that ``data`` holds from its first byte, as every
    encoder here writes it, to its end or its trailing whitespace (a
    binary header's padding); every failure typed (deep nesting too)."""
    try:
        text = str(data, "utf-8")
        value, end = _SCAN(text, 0)
    except StopIteration:
        raise ProtocolError(f"undecodable {what}: expecting a value") from None
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from None
    if end != len(text) and text[end:].strip(" \t\n\r"):
        raise ProtocolError(f"undecodable {what}: extra data at {end}")
    return value


def _field(mapping, key: str, kind: type):
    """A required header/descriptor field of JSON type ``kind``."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(
            f"binary frame field {key!r} is missing or not {kind.__name__}"
        )
    return value


def _decode_column(descriptor, body, offset: int) -> np.ndarray:
    """Inverse of :func:`_column_part`: the column as an array — a
    zero-copy view of ``body`` for numeric columns, object dtype else."""
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
            return np.frombuffer(chunk, dtype=dtype)
        if enc == "dict":
            codes = np.frombuffer(chunk, dtype=np.int32)
            lookup = _field(descriptor, "values", list)
            if codes.size and (codes.min() < -1 or codes.max() >= len(lookup)):
                raise ProtocolError("dictionary code outside its value list")
            atoms = np.fromiter([*lookup, None], object, len(lookup) + 1)
            return atoms[codes]  # NULL's code -1 picks the trailing None
    except (TypeError, ValueError) as exc:  # bad dtype string, ragged size
        raise ProtocolError(f"undecodable {enc} column: {exc}") from None
    if enc == "json":
        values = _loads(chunk, "json column")
        if not isinstance(values, list):
            raise ProtocolError("json column body must be an array")
        return np.fromiter(values, dtype=object, count=len(values))
    raise ProtocolError(f"unknown column encoding {enc!r}")


def _pack_binary(kind: int, header: dict, bodies: list, size: int, compression) -> bytes:
    """One complete binary frame (length prefix included) around the
    ``size`` bytes of ``bodies``, joined once; the cap applies to the
    *uncompressed* frame, because the decoder refuses to inflate a body
    past it."""
    header_bytes = _ENCODE(header).encode("utf-8")
    # JSON whitespace up to a multiple of 8: a raw body starts aligned.
    header_bytes += b" " * (-len(header_bytes) % 8)
    head = _BIN_HEAD.size + len(header_bytes)
    if head + size > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame of {head + size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; lower the chunk size"
        )
    flags = 0
    if compression == "zlib" and size >= COMPRESS_MIN_BYTES:
        squeezed = zlib.compress(b"".join(bodies), 1)
        if len(squeezed) < size:  # incompressible bodies stay raw
            bodies, size, flags = [squeezed], len(squeezed), _FLAG_COMPRESSED
    marker = _BIN_HEAD.pack(_BINARY_MARKER, kind, flags, len(header_bytes))
    return b"".join([_LENGTH.pack(head + size), marker, header_bytes, *bodies])


def _result_frame(
    kind: int, columns, plans, start: int, stop: int, extra: dict, compression
) -> bytes:
    """Encode rows ``[start, stop)`` (FULL or CHUNK) into one binary frame."""
    parts = [_column_part(plan, start, stop) for plan in plans]
    descriptors = [descriptor for descriptor, _ in parts]
    header = {"columns": columns, "cols": descriptors, "rows": stop - start, **extra}
    size = sum(descriptor["size"] for descriptor in descriptors)
    return _pack_binary(kind, header, [body for _, body in parts], size, compression)


def _chunk_stops(plans, n_rows: int) -> list[int]:
    """The row offset ending each chunk.  Within :data:`CHUNK_BYTES` by
    column totals, one; past it, a chunk takes as many rows as fit by the
    columns' real per-row byte counts (always at least one), so values
    that grow along the result cannot push a chunk past the cap."""
    if sum(plan[3] for plan in plans) <= CHUNK_BYTES:
        return [n_rows]
    row_bytes = sum(4 + cost[data] if enc == "dict" else cost
                    for enc, data, _, _, cost in plans)
    if np.ndim(row_bytes):
        spent = np.cumsum(row_bytes)
        stops, stop = [], 0
        while stop < n_rows:
            budget = CHUNK_BYTES + (int(spent[stop - 1]) if stop else 0)
            stop = max(stop + 1, int(np.searchsorted(spent, budget, side="right")))
            stops.append(stop)
        return stops
    chunk_rows = max(1, CHUNK_BYTES // max(int(row_bytes), 1))
    return [*range(chunk_rows, n_rows, chunk_rows), n_rows]


def encode_result_frames(result, *, compression: str | None = None):
    """Yield the binary frame(s) carrying one bulk query result.

    Encoded from ``result.arrays``: a columnar result is sliced, never
    turned into row tuples.  A result that fits one chunk becomes a
    single ``FULL`` frame; anything larger streams as ``CHUNK`` frames
    closed by an ``END`` trailer with the totals — no frame ever holds
    the whole result, which is how SELECTs far past
    :data:`MAX_FRAME_BYTES` cross the wire.
    """
    columns = list(result.columns)
    plans = [
        _plan_column(result.arrays[name], result.codes.get(name))
        for name in columns
    ]
    n_rows = result.row_count
    affected = int(result.affected)
    stops = _chunk_stops(plans, n_rows)
    if len(stops) <= 1:
        extra = {"affected": affected}
        yield _result_frame(_KIND_FULL, columns, plans, 0, n_rows, extra, compression)
        return
    start = 0
    for seq, stop in enumerate(stops, 1):
        yield _result_frame(
            _KIND_CHUNK, columns, plans, start, stop, {"seq": seq}, compression
        )
        start = stop
    totals = {"affected": affected, "rows": n_rows, "chunks": len(stops)}
    yield _pack_binary(_KIND_END, {"columns": columns, **totals}, [], 0, None)


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
        keys = ("affected", "rows", "chunks")
        totals = {key: _field(header, key, int) for key in keys}
        return {"type": "result_end", "columns": columns, **totals}
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
    cols = []
    offset = 0
    for descriptor in descriptors:
        cols.append(_decode_column(descriptor, body, offset))
        offset += descriptor["size"]
    if any(len(col) != n_rows for col in cols):
        raise ProtocolError("binary frame column lengths disagree")
    if kind == _KIND_CHUNK:
        return _ColumnarMessage("result_chunk", columns, cols, seq=header.get("seq"))
    affected = _field(header, "affected", int)
    return _ColumnarMessage("result", columns, cols, affected=affected)


class _ColumnarMessage(dict):
    """A decoded bulk ``result`` / ``result_chunk`` message: ``"cols"``
    holds one array per column, ``"arrays"`` names the numeric ones
    (zero-copy views of the frame), and ``"rows"`` — the same data as
    ``list[tuple]`` of plain Python values — is built the first time it
    is subscripted, because a columnar consumer never reads it."""

    def __init__(self, kind: str, columns, cols, **extra) -> None:
        arrays = {n: col for n, col in zip(columns, cols) if col.dtype != object}
        super().__init__(type=kind, columns=columns, cols=cols, arrays=arrays, **extra)

    def __missing__(self, key):
        if key != "rows":
            raise KeyError(key)
        rows = self["rows"] = list(zip(*[col.tolist() for col in self["cols"]]))
        return rows


class ResultAssembler:
    """Client-side reassembly of a chunked result stream.

    Feed it decoded messages; non-result messages pass straight
    through, a ``FULL`` result passes through, and a chunk stream is
    buffered until its ``END`` trailer arrives, at which point one
    logical ``result`` message (each column's chunks concatenated) is
    returned.  A trailer whose totals disagree with what actually
    arrived — a torn stream — raises :class:`ProtocolError`; a typed
    ``error`` arriving mid-stream discards the partial result and
    passes the error through.
    """

    def __init__(self) -> None:
        self._chunks: list[dict] = []

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
            columns = message["columns"]
            if any(chunk["columns"] != columns for chunk in chunks):
                raise ProtocolError(
                    "torn result stream: chunk columns disagree with the trailer"
                )
            received = sum(len(chunk["cols"][0]) for chunk in chunks if columns)
            if received != message["rows"]:
                raise ProtocolError(
                    f"torn result stream: trailer announces {message['rows']} "
                    f"rows, received {received}"
                )
            cols = [
                np.concatenate([chunk["cols"][i] for chunk in chunks])
                if chunks else np.empty(0, dtype=object)
                for i in range(len(columns))
            ]
            affected = message["affected"]
            return _ColumnarMessage("result", columns, cols, affected=affected)
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
    payload = _ENCODE(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload) -> dict:
    """Parse one frame's payload (JSON or binary) into a message dict.

    Binary result frames (first byte :data:`_BINARY_MARKER`) decode via
    the columnar codec; everything else must be a JSON object — and may
    not claim a chunk-stream type or carry column arrays (``"cols"``),
    whose fields only the binary decoder validates.
    """
    if payload and payload[0] == _BINARY_MARKER:
        return _decode_binary(payload)
    message = _loads(payload, "frame payload")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if message.get("type") in ("result_chunk", "result_end") or "cols" in message:
        raise ProtocolError(
            "chunked and columnar results must arrive as binary frames"
        )
    return message


class FrameDecoder:
    """Incremental frame decoder for stream transports (both peers).

    Feed it byte chunks as they arrive; it hands out complete messages
    one at a time (:meth:`take`, the client's reply reader) or as a run
    (:meth:`messages`, the server's request reader), and buffers partial
    frames across calls.

    ``requests=True`` is the server's end: requests are always JSON, so
    a binary frame is refused undecoded — a client cannot make the
    server inflate anything.
    """

    def __init__(self, requests: bool = False) -> None:
        self._buffer = bytearray()
        self._requests = requests

    def feed(self, data: bytes) -> list[dict]:
        return list(self.messages(data))

    def messages(self, data: bytes):
        """Buffer ``data`` and yield every complete message, lazily: a
        malformed frame raises only after the good ones before it have
        been handed over."""
        message = self.take(data)
        while message is not None:
            yield message
            message = self.take()

    def take(self, data: bytes = b"") -> dict | None:
        """Buffer ``data``; the next complete message, or None while its
        frame is still partial."""
        buffer = self._buffer
        buffer += data
        if len(buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"incoming frame of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        end = _LENGTH.size + length
        if len(buffer) < end:
            return None
        payload = buffer[_LENGTH.size:end]  # one copy, which the message owns
        del buffer[:end]
        if self._requests and payload and payload[0] == _BINARY_MARKER:
            raise ProtocolError("requests must be JSON frames, got a binary frame")
        return decode_payload(payload)
