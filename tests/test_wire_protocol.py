"""Frame protocol: binary round trips, fuzzed corruption, both readers.

The binary frame moves raw ndarray bytes, so a malformed frame is a
memory-safety question, not just a correctness one: every truncation,
bad dtype code, oversized declared shape or trailing byte must raise
``ValueError`` (mid-stream EOF: ``ConnectionError``) - never a silently
zero-filled or short array.  This module fuzzes
:func:`decode_binary_payload` with systematically corrupted frames and
pins the shared frame-length cap and the JSON/binary stream dispatch of
both frame readers: :func:`read_frame` on asyncio streams (TCP clients,
the front door, the worker handles) and its blocking twin
:func:`recv_frame` on the worker's socket.
"""

from __future__ import annotations

import asyncio
import io
import math
import struct

import numpy as np
import pytest

from repro.serving.fleet import protocol
from repro.serving.fleet.protocol import (
    BINARY_MAGIC,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    BinaryMessage,
    check_frame_length,
    decode_binary_payload,
    encode_binary_frame,
    encode_binary_payload,
    encode_frame,
    read_frame,
    recv_frame,
)


def _read_one(data: bytes):
    """Feed bytes to a StreamReader and read one frame."""

    async def decode():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(decode())


PAYLOAD_CASES = [
    ("distances-request", KIND_REQUEST, "distances", [np.array([[0, 5], [3, 9]], dtype=np.int64)]),
    ("distances-reply", KIND_RESPONSE, "distances", [np.array([1.5, math.inf, 0.0])]),
    ("empty-batch", KIND_REQUEST, "distances", [np.empty((0, 2), dtype=np.int64)]),
    (
        "many_to_many-request",
        KIND_REQUEST,
        "many_to_many",
        [np.array([1, 2, 3], dtype=np.int64), np.array([4, 5], dtype=np.int64)],
    ),
    ("matrix-reply", KIND_RESPONSE, "many_to_many", [np.arange(6, dtype=np.float64).reshape(2, 3)]),
    (
        "one_to_many-request",
        KIND_REQUEST,
        "one_to_many",
        [np.array([7], dtype=np.int64), np.arange(10, dtype=np.int64)],
    ),
]


class TestBinaryRoundTrip:
    @pytest.mark.parametrize(
        "kind,op,arrays",
        [case[1:] for case in PAYLOAD_CASES],
        ids=[case[0] for case in PAYLOAD_CASES],
    )
    def test_payload_round_trip_is_bit_identical(self, kind, op, arrays):
        decoded = decode_binary_payload(encode_binary_payload(kind, op, 42, arrays))
        assert decoded.kind == kind
        assert decoded.op == op
        assert decoded.request_id == 42
        assert len(decoded.arrays) == len(arrays)
        for got, want in zip(decoded.arrays, arrays):
            assert got.shape == want.shape
            assert got.dtype.itemsize == 8
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_decoded_arrays_view_the_payload(self):
        values = np.array([1.0, 2.0, 4.0])
        payload = encode_binary_payload(KIND_RESPONSE, "distances", 1, [values])
        decoded = decode_binary_payload(payload)
        assert not decoded.arrays[0].flags.owndata  # np.frombuffer view

    def test_frame_adds_the_length_prefix(self):
        frame = encode_binary_frame(KIND_REQUEST, "distances", 9, [np.zeros((1, 2), dtype=np.int64)])
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert frame[4] == BINARY_MAGIC

    def test_non_contiguous_and_big_endian_inputs_canonicalised(self):
        fortran = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        big_endian = np.arange(4, dtype=">i8")
        decoded = decode_binary_payload(
            encode_binary_payload(KIND_RESPONSE, "many_to_many", 0, [fortran])
        )
        assert decoded.arrays[0].tolist() == fortran.tolist()
        decoded = decode_binary_payload(
            encode_binary_payload(KIND_REQUEST, "distances", 0, [big_endian.reshape(2, 2)])
        )
        assert decoded.arrays[0].tolist() == [[0, 1], [2, 3]]

    def test_unsupported_inputs_rejected(self):
        with pytest.raises(ValueError, match="int64/float64"):
            encode_binary_payload(KIND_REQUEST, "distances", 0, [np.zeros(2, dtype=np.float32)])
        with pytest.raises(ValueError, match="no binary form"):
            encode_binary_payload(KIND_REQUEST, "stats", 0, [])
        with pytest.raises(ValueError, match="kind"):
            encode_binary_payload(7, "distances", 0, [])
        with pytest.raises(ValueError, match="request id"):
            encode_binary_payload(KIND_REQUEST, "distances", True, [])
        with pytest.raises(ValueError, match="dims"):
            encode_binary_payload(
                KIND_REQUEST, "distances", 0, [np.zeros((1,) * 9, dtype=np.int64)]
            )
        with pytest.raises(ValueError, match="u32"):
            # zero total bytes, so the size cap passes - the dim itself
            # must be refused before struct.pack overflows
            encode_binary_payload(
                KIND_REQUEST, "distances", 0, [np.zeros((2**32, 0), dtype=np.int64)]
            )


class TestBinaryFuzz:
    """Systematic corruption: nothing decodes to garbage, ever."""

    @pytest.fixture(scope="class")
    def valid_payload(self):
        return encode_binary_payload(
            KIND_RESPONSE,
            "many_to_many",
            3,
            [np.arange(6, dtype=np.float64).reshape(2, 3)],
        )

    def test_every_truncation_raises(self, valid_payload):
        for cut in range(len(valid_payload)):
            with pytest.raises(ValueError):
                decode_binary_payload(valid_payload[:cut])

    def test_trailing_bytes_raise(self, valid_payload):
        with pytest.raises(ValueError, match="trailing"):
            decode_binary_payload(valid_payload + b"\x00")

    def test_bad_magic_version_kind_op(self, valid_payload):
        corrupt = bytearray(valid_payload)
        corrupt[0] = 0x7C  # not JSON, not binary
        with pytest.raises(ValueError, match="magic"):
            decode_binary_payload(bytes(corrupt))
        corrupt = bytearray(valid_payload)
        corrupt[1] = 99
        with pytest.raises(ValueError, match="version"):
            decode_binary_payload(bytes(corrupt))
        corrupt = bytearray(valid_payload)
        corrupt[2] = 7
        with pytest.raises(ValueError, match="kind"):
            decode_binary_payload(bytes(corrupt))
        corrupt = bytearray(valid_payload)
        corrupt[3] = 200
        with pytest.raises(ValueError, match="op code"):
            decode_binary_payload(bytes(corrupt))

    def test_unknown_dtype_code_raises(self, valid_payload):
        corrupt = bytearray(valid_payload)
        corrupt[13] = 77  # first array's dtype code byte
        with pytest.raises(ValueError, match="dtype code"):
            decode_binary_payload(bytes(corrupt))

    def test_oversized_declared_shape_raises(self, valid_payload):
        """A shape claiming more data than the frame holds must raise, not
        read out of bounds or zero-fill."""
        corrupt = bytearray(valid_payload)
        # first shape u32 sits after head (13) + array head (2)
        struct.pack_into(">I", corrupt, 15, 2**31)
        with pytest.raises(ValueError, match="remain in the frame"):
            decode_binary_payload(bytes(corrupt))

    def test_excessive_ndim_raises(self, valid_payload):
        corrupt = bytearray(valid_payload)
        corrupt[14] = 9  # ndim byte
        with pytest.raises(ValueError):
            decode_binary_payload(bytes(corrupt))

    def test_random_garbage_never_decodes_silently(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
            blob = bytes([BINARY_MAGIC]) + blob  # force the binary path
            try:
                decoded = decode_binary_payload(blob)
            except ValueError:
                continue
            # the rare random blob that parses must be internally consistent
            assert isinstance(decoded, BinaryMessage)
            for array in decoded.arrays:
                assert array.dtype.itemsize == 8


class TestFrameLengthCap:
    def test_rejects_non_numbers_and_non_finite(self):
        for bad in (True, "x", None, [4], math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                check_frame_length(bad)
        with pytest.raises(ValueError, match=">= 0"):
            check_frame_length(-1)
        with pytest.raises(ValueError, match="byte limit"):
            check_frame_length(MAX_FRAME_BYTES + 1)
        assert check_frame_length(0) == 0
        assert check_frame_length(MAX_FRAME_BYTES) == MAX_FRAME_BYTES

    def test_json_cap_checked_after_encoding(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        encode_frame({"id": 1})  # small frames still pass
        with pytest.raises(ValueError, match="byte limit"):
            encode_frame({"id": 1, "value": list(range(100))})

    def test_binary_cap_checked_before_assembly(self, monkeypatch):
        """The binary encoder computes the total size from the array
        shapes and refuses *before* concatenating any buffers."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
        big = np.zeros(1024, dtype=np.float64)
        with pytest.raises(ValueError, match="byte limit"):
            encode_binary_payload(KIND_RESPONSE, "distances", 0, [big])
        small = np.zeros(4, dtype=np.float64)
        encode_binary_payload(KIND_RESPONSE, "distances", 0, [small])


class TestStreamDispatch:
    def test_json_and_binary_frames_on_one_stream(self):
        json_frame = encode_frame({"id": 1, "op": "ping"})
        binary_frame = encode_binary_frame(
            KIND_REQUEST, "distances", 2, [np.array([[0, 1]], dtype=np.int64)]
        )

        async def decode_both():
            reader = asyncio.StreamReader()
            reader.feed_data(json_frame + binary_frame)
            reader.feed_eof()
            return await read_frame(reader), await read_frame(reader), await read_frame(reader)

        first, second, third = asyncio.run(decode_both())
        assert first == {"id": 1, "op": "ping"}
        assert isinstance(second, BinaryMessage)
        assert second.op == "distances"
        assert third is None  # clean EOF between frames

    def test_mid_frame_eof_in_binary_payload_is_connection_error(self):
        frame = encode_binary_frame(
            KIND_RESPONSE, "distances", 1, [np.arange(8, dtype=np.float64)]
        )
        with pytest.raises(ConnectionError, match="mid-frame"):
            _read_one(frame[:-3])
        with pytest.raises(ConnectionError, match="length prefix"):
            _read_one(frame[:2])

    def test_truncated_binary_payload_with_intact_prefix_raises_value_error(self):
        """A frame whose *length* is intact but whose binary payload is
        internally truncated (attacker-controlled) raises ValueError."""
        payload = encode_binary_payload(
            KIND_RESPONSE, "distances", 1, [np.arange(8, dtype=np.float64)]
        )[:-8]
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ValueError):
            _read_one(frame)

    def test_non_object_json_frame_raises(self):
        frame = struct.pack(">I", 2) + b"[]"
        with pytest.raises(ValueError, match="JSON object"):
            _read_one(frame)


class TestBlockingReader:
    """``recv_frame`` (the worker side of the hop) keeps read_frame's rules."""

    def test_json_and_binary_frames_then_clean_eof(self):
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        stream = io.BytesIO(
            encode_frame({"id": 1, "op": "ping"})
            + encode_binary_frame(KIND_REQUEST, "distances", 2, [pairs])
        )
        first, second, third = recv_frame(stream), recv_frame(stream), recv_frame(stream)
        assert first == {"id": 1, "op": "ping"}
        assert isinstance(second, BinaryMessage)
        assert (second.kind, second.op, second.request_id) == (KIND_REQUEST, "distances", 2)
        assert second.arrays[0].tolist() == pairs.tolist()
        assert third is None  # clean EOF between frames

    def test_every_cut_frame_is_a_connection_error(self):
        frame = encode_binary_frame(
            KIND_RESPONSE, "distances", 1, [np.arange(4, dtype=np.float64)]
        )
        for cut in range(1, len(frame)):
            part = "length prefix" if cut < 4 else "payload"
            with pytest.raises(ConnectionError, match=part):
                recv_frame(io.BytesIO(frame[:cut]))

    def test_oversized_length_prefix_refused(self):
        with pytest.raises(ValueError, match="byte limit"):
            recv_frame(io.BytesIO(struct.pack(">I", MAX_FRAME_BYTES + 1)))

    def test_corrupt_payloads_raise_value_error(self):
        payload = encode_binary_payload(
            KIND_RESPONSE, "distances", 1, [np.arange(8, dtype=np.float64)]
        )[:-8]
        for bad in (payload, b"[]", b"{not json", b"\xff\xfe"):
            with pytest.raises(ValueError):
                recv_frame(io.BytesIO(struct.pack(">I", len(bad)) + bad))
