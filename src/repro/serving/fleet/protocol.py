"""The fleet's frame protocol: length-prefixed JSON + binary frames.

One framing serves both hops of the fleet.  The
:class:`~repro.serving.fleet.frontdoor.FleetServer` speaks it over TCP so
that any client - another Python process, a load generator, ``netcat``
plus a JSON encoder - can talk to it without importing this package, and
each :class:`~repro.serving.fleet.worker.WorkerHandle` speaks it to its
worker process over a ``socket.socketpair`` stream:

* every message is one **frame**: a 4-byte big-endian unsigned length
  followed by that many payload bytes;
* a payload whose first byte is ``{`` (any valid JSON object) is a
  **JSON frame**: requests carry an ``id`` (echoed back verbatim, so one
  connection can multiplex concurrent requests), an ``op`` and the op's
  arguments; responses carry the same ``id`` plus either
  ``{"ok": true, "value": ...}`` or
  ``{"ok": false, "error": {"type": ..., "message": ...}}``;
* a payload whose first byte is ``0xB1`` is a **binary frame**: a small
  fixed header (kind, op code, request id, array count) followed by raw
  little-endian ndarray bytes, so numeric batches move as
  ``np.frombuffer`` views with no per-float boxing.  Only the
  array-valued ops (``distances``, ``one_to_many``, ``many_to_many``)
  have a binary form; control ops (``ping``, ``stats``, ``health``,
  ``reload``) and every error reply stay JSON.  A request is answered in
  the framing it arrived in, so JSON-only clients never see a binary
  frame.

Binary frame byte layout (everything after the 4-byte length prefix,
header fields big-endian, array data little-endian)::

    offset 0   u8   magic   = 0xB1
    offset 1   u8   version = 1
    offset 2   u8   kind    (1 = request, 2 = ok-response)
    offset 3   u8   op code (1 = distances, 2 = one_to_many, 3 = many_to_many)
    offset 4   u64  request id
    offset 12  u8   number of arrays
    then per array:
        u8  dtype code (1 = little-endian int64, 2 = little-endian float64)
        u8  ndim (<= 8)
        u32 * ndim  shape
        raw C-order array bytes
    (arrays back to back; no padding; no trailing bytes allowed)

Distances may be infinite (disconnected pairs), so JSON frames use
Python's JSON dialect in which ``Infinity`` is a valid literal - the same
extension every ``json.loads`` accepts by default - and binary frames
simply carry the IEEE-754 ``inf`` bit pattern.

The ops mirror the :class:`~repro.core.oracle.DistanceOracle` surface:
``distance``, ``distances``, ``one_to_many``, ``many_to_many``,
``hub_count`` plus the fleet-management ops ``stats``, ``health``,
``ping`` and ``reload`` (hot-swap every worker onto the index generation
currently on disk; always JSON, answers with the new generation and the
per-worker replies).  Errors re-raise at the receiving end as the same builtin exception
type where possible (``ValueError`` for a bad vertex id stays a
``ValueError``), so a remote fleet behaves like an in-process oracle.
"""

from __future__ import annotations

import asyncio
import builtins
import json
import math
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

#: frames above this size are refused - a corrupt length prefix must not
#: make the reader allocate gigabytes.  The cap applies to *both* frame
#: kinds through :func:`check_frame_length`.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: first payload byte of a binary frame; JSON object frames start with
#: ``{`` (0x7B), so the two never collide
BINARY_MAGIC = 0xB1
BINARY_VERSION = 1

KIND_REQUEST = 1
KIND_RESPONSE = 2

#: ops with a binary form; everything else travels as JSON
OP_CODES = {"distances": 1, "one_to_many": 2, "many_to_many": 3}
OP_NAMES = {code: name for name, code in OP_CODES.items()}

#: wire dtype codes; array bytes are always little-endian on the wire
DTYPE_CODES = {1: np.dtype("<i8"), 2: np.dtype("<f8")}
_DTYPE_OF_KIND = {"i": 1, "f": 2}

_BINARY_HEAD = struct.Struct(">BBBBQB")
_ARRAY_HEAD = struct.Struct(">BB")
_MAX_NDIM = 8


def check_frame_length(length) -> int:
    """Validate a frame/payload length against the shared 64MB cap.

    One helper for both frame kinds, so a binary frame can never bypass
    the cap the JSON encoder enforces.  Non-numbers, non-finite values
    and negative lengths are rejected with the same loud ``ValueError``
    as an oversized frame.
    """
    if isinstance(length, bool) or not isinstance(
        length, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"frame length must be a number, got {length!r}")
    if not math.isfinite(length):
        raise ValueError(f"frame length must be finite, got {length!r}")
    if length < 0:
        raise ValueError(f"frame length must be >= 0, got {length!r}")
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {int(length)} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
        )
    return int(length)


def _frame(payload: bytes) -> bytes:
    """Length-prefix one payload (shared by both frame kinds)."""
    check_frame_length(len(payload))
    return _LENGTH.pack(len(payload)) + payload


def encode_frame(message: dict) -> bytes:
    """Serialise one message as a length-prefixed JSON frame."""
    return _frame(json.dumps(message, separators=(",", ":")).encode("utf-8"))


# --------------------------------------------------------------------- #
# binary frames
# --------------------------------------------------------------------- #
@dataclass
class BinaryMessage:
    """One decoded binary frame (request or ok-response)."""

    kind: int
    op: str
    request_id: int
    arrays: List[np.ndarray]


def _wire_array(array: np.ndarray) -> np.ndarray:
    """Canonicalise one array for the wire (C-contiguous, little-endian)."""
    arr = np.ascontiguousarray(array)
    code = _DTYPE_OF_KIND.get(arr.dtype.kind)
    if code is None or arr.dtype.itemsize != 8:
        raise ValueError(
            f"binary frames carry int64/float64 arrays only, got dtype {arr.dtype}"
        )
    return arr.astype(DTYPE_CODES[code], copy=False)


def encode_binary_payload(
    kind: int, op: str, request_id: int, arrays: Sequence[np.ndarray]
) -> bytes:
    """Encode one binary payload (header + raw array bytes, no length prefix).

    The total size is computed *before* any bytes are assembled and
    checked against the shared cap, so an oversized batch is refused
    without first materialising a giant buffer.
    """
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ValueError(f"unknown binary frame kind {kind!r}")
    op_code = OP_CODES.get(op)
    if op_code is None:
        raise ValueError(f"op {op!r} has no binary form; expected one of {list(OP_CODES)}")
    if not isinstance(request_id, (int, np.integer)) or isinstance(request_id, bool):
        raise ValueError(f"request id must be an integer, got {request_id!r}")
    wire_arrays = [_wire_array(array) for array in arrays]
    if len(wire_arrays) > 255:
        raise ValueError(f"binary frames carry at most 255 arrays, got {len(wire_arrays)}")
    total = _BINARY_HEAD.size
    for arr in wire_arrays:
        if arr.ndim > _MAX_NDIM:
            raise ValueError(f"binary arrays are limited to {_MAX_NDIM} dims, got {arr.ndim}")
        for dim in arr.shape:
            # a dim can exceed u32 while total bytes stay tiny, e.g. (2**32, 0)
            if dim >= 1 << 32:
                raise ValueError(
                    f"binary array dim {dim} does not fit the u32 shape field"
                )
        total += _ARRAY_HEAD.size + 4 * arr.ndim + arr.nbytes
    check_frame_length(total)
    parts = [
        _BINARY_HEAD.pack(
            BINARY_MAGIC, BINARY_VERSION, kind, op_code, int(request_id), len(wire_arrays)
        )
    ]
    for arr in wire_arrays:
        code = _DTYPE_OF_KIND[arr.dtype.kind]
        parts.append(_ARRAY_HEAD.pack(code, arr.ndim))
        parts.append(struct.pack(f">{arr.ndim}I", *arr.shape))
        parts.append(arr.data if arr.nbytes else b"")
    return b"".join(parts)


def decode_binary_payload(payload) -> BinaryMessage:
    """Decode one binary payload into arrays that *view* the input buffer.

    Every malformed input - truncated header, unknown dtype code, a
    declared shape larger than the remaining bytes, trailing garbage -
    raises ``ValueError``; nothing is ever silently zero-filled or
    truncated.
    """
    view = memoryview(payload)
    size = len(view)
    if size < _BINARY_HEAD.size:
        raise ValueError(
            f"truncated binary frame header: {size} bytes, need {_BINARY_HEAD.size}"
        )
    magic, version, kind, op_code, request_id, num_arrays = _BINARY_HEAD.unpack_from(view, 0)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad binary frame magic 0x{magic:02X}")
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported binary frame version {version}")
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ValueError(f"unknown binary frame kind {kind}")
    op = OP_NAMES.get(op_code)
    if op is None:
        raise ValueError(f"unknown binary op code {op_code}")
    offset = _BINARY_HEAD.size
    arrays: List[np.ndarray] = []
    for _ in range(num_arrays):
        if size - offset < _ARRAY_HEAD.size:
            raise ValueError("truncated binary frame: array header cut short")
        dtype_code, ndim = _ARRAY_HEAD.unpack_from(view, offset)
        offset += _ARRAY_HEAD.size
        dtype = DTYPE_CODES.get(dtype_code)
        if dtype is None:
            raise ValueError(f"unknown wire dtype code {dtype_code}")
        if ndim > _MAX_NDIM:
            raise ValueError(f"binary arrays are limited to {_MAX_NDIM} dims, got {ndim}")
        if size - offset < 4 * ndim:
            raise ValueError("truncated binary frame: shape cut short")
        shape = struct.unpack_from(f">{ndim}I", view, offset)
        offset += 4 * ndim
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        if nbytes > size - offset:
            raise ValueError(
                f"declared shape {tuple(shape)} needs {nbytes} bytes but only "
                f"{size - offset} remain in the frame"
            )
        arrays.append(
            np.frombuffer(view, dtype=dtype, count=count, offset=offset).reshape(shape)
        )
        offset += nbytes
    if offset != size:
        raise ValueError(f"{size - offset} trailing bytes after the last binary array")
    return BinaryMessage(kind=kind, op=op, request_id=int(request_id), arrays=arrays)


def encode_binary_frame(
    kind: int, op: str, request_id: int, arrays: Sequence[np.ndarray]
) -> bytes:
    """Serialise one binary message as a length-prefixed frame."""
    return _frame(encode_binary_payload(kind, op, request_id, arrays))


# --------------------------------------------------------------------- #
# stream I/O (both frame kinds)
# --------------------------------------------------------------------- #
def decode_payload(payload) -> Union[dict, BinaryMessage]:
    """Decode one payload: a ``dict`` (JSON) or :class:`BinaryMessage`, by first byte."""
    if payload and payload[0] == BINARY_MAGIC:
        return decode_binary_payload(payload)
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(f"expected a JSON object frame, got {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> Optional[Union[dict, BinaryMessage]]:
    """Read one frame; ``None`` on a clean EOF between frames.

    A connection dropped mid-frame raises ``ConnectionError`` - a half
    message must never be silently treated as a clean shutdown.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ConnectionError("connection closed mid-frame (length prefix)") from error
    (length,) = _LENGTH.unpack(prefix)
    check_frame_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("connection closed mid-frame (payload)") from error
    return decode_payload(payload)


def recv_frame(stream) -> Optional[Union[dict, BinaryMessage]]:
    """Blocking :func:`read_frame` over a binary file such as ``sock.makefile("rb")``.

    The worker side of a hop.  Same contract: ``None`` on a clean EOF
    between frames, ``ConnectionError`` on an EOF mid-frame,
    ``ValueError`` on a frame that breaks the cap or does not decode.
    """
    prefix = stream.read(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        raise ConnectionError("connection closed mid-frame (length prefix)")
    (length,) = _LENGTH.unpack(prefix)
    check_frame_length(length)
    payload = stream.read(length)
    if len(payload) < length:
        raise ConnectionError("connection closed mid-frame (payload)")
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one JSON frame and flush it."""
    writer.write(encode_frame(message))
    await writer.drain()


# --------------------------------------------------------------------- #
# error marshalling
# --------------------------------------------------------------------- #
def error_to_wire(error: BaseException) -> dict:
    """Flatten an exception for the wire (type name + message)."""
    return {"type": type(error).__name__, "message": str(error)}


def wire_to_error(wire: dict) -> Exception:
    """Rebuild a client-side exception from a wire error.

    Builtin exception types round-trip as themselves (so a remote
    ``ValueError`` still ``raises ValueError`` at the client); anything
    else degrades to ``RuntimeError`` with the original type in the
    message.
    """
    name = str(wire.get("type", "RuntimeError"))
    message = str(wire.get("message", ""))
    candidate = getattr(builtins, name, None)
    if (
        isinstance(candidate, type)
        and issubclass(candidate, Exception)
        and not issubclass(candidate, (SystemExit, KeyboardInterrupt))
    ):
        return candidate(message)
    return RuntimeError(f"{name}: {message}")


def error_frame(request_id, error: BaseException) -> bytes:
    """The JSON error reply to one request (errors never travel binary)."""
    return encode_frame({"id": request_id, "ok": False, "error": error_to_wire(error)})


def unpack_reply(reply: Union[dict, BinaryMessage]):
    """``(request id, value, error)`` of one reply frame, from either hop.

    A binary frame is an ok-reply carrying its array; a JSON frame
    carries its ``value`` or an error rebuilt by :func:`wire_to_error`.
    """
    if isinstance(reply, BinaryMessage):
        return reply.request_id, (reply.arrays[0] if reply.arrays else None), None
    if reply.get("ok"):
        return reply.get("id"), reply.get("value"), None
    return reply.get("id"), None, wire_to_error(reply.get("error", {}))
