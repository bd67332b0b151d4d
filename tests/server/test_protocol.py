"""Wire framing: total decoding, prefix sweep, typed errors only.

The load-bearing property (the wire analogue of the WAL's
torn-tail sweep): **every prefix of a valid frame stream** decodes to
a prefix of its frames plus either a clean wait-for-more or a typed
:class:`~repro.errors.NetworkError` at ``finish`` -- never a hang,
never an unhandled exception, never a frame invented from damage.
"""

import asyncio
import json
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    ClusterUnavailableError,
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    SessionError,
    UnavailableError,
    WriteConflictError,
    XSTError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameType,
    decode_body,
    encode_frame,
    error_body,
    error_from_body,
    within,
)


def stream_of(bodies):
    """Encode bodies as a QUERY-frame stream; returns (bytes, frames)."""
    frames = [(FrameType.QUERY, body) for body in bodies]
    data = b"".join(encode_frame(t, b) for t, b in frames)
    return data, frames


class TestRoundTrip:
    def test_encode_decode_one_frame(self):
        body = {"id": "r1", "xql": "select k from t", "n": 3, "f": 1.5,
                "flag": True, "none": None}
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(FrameType.QUERY, body))
        assert frames == [(FrameType.QUERY, body)]
        decoder.finish()

    def test_many_frames_across_arbitrary_chunks(self):
        data, expected = stream_of([{"i": i} for i in range(7)])
        decoder = FrameDecoder()
        out = []
        for k in range(0, len(data), 3):
            out.extend(decoder.feed(data[k:k + 3]))
        decoder.finish()
        assert out == expected
        assert decoder.frames_decoded == 7

    def test_canonical_encoding_is_deterministic(self):
        a = encode_frame(FrameType.PAGE, {"b": 1, "a": 2})
        b = encode_frame(FrameType.PAGE, {"a": 2, "b": 1})
        assert a == b

    def test_unknown_frame_type_refused_at_encode(self):
        with pytest.raises(ValueError):
            encode_frame(99, {})

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ValueError):
            encode_frame(FrameType.PAGE,
                         {"x": "a" * (MAX_FRAME_BYTES + 1)})


class TestPrefixSweep:
    """Every prefix: decoded frames are a prefix, the tail is typed."""

    def test_exhaustive_prefixes_of_a_small_stream(self):
        data, expected = stream_of(
            [{"id": "a"}, {"id": "b", "rows": [[1, "x"]]}, {"id": "c"}]
        )
        boundaries = set()
        offset = 0
        decoder0 = FrameDecoder()
        for frame in range(len(expected)):
            # Reconstruct frame boundaries by re-encoding.
            offset += len(encode_frame(*expected[frame]))
            boundaries.add(offset)
        boundaries.add(0)
        for cut in range(len(data) + 1):
            decoder = FrameDecoder()
            frames = decoder.feed(data[:cut])
            assert frames == expected[:len(frames)]
            if cut in boundaries:
                decoder.finish()  # clean end on a frame boundary
            else:
                with pytest.raises(NetworkError) as exc:
                    decoder.finish()
                assert "torn" in str(exc.value)
        assert decoder0.frames_decoded == 0

    @given(
        bodies=st.lists(
            st.dictionaries(
                st.sampled_from(["id", "k", "v"]),
                st.one_of(st.integers(-9, 9), st.text(max_size=4)),
                max_size=3,
            ),
            min_size=1, max_size=4,
        ),
        cut_seed=st.integers(min_value=0, max_value=10 ** 6),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_streams_random_cuts(self, bodies, cut_seed, chunk):
        data, expected = stream_of(bodies)
        cut = cut_seed % (len(data) + 1)
        decoder = FrameDecoder()
        out = []
        for k in range(0, cut, chunk):
            out.extend(decoder.feed(data[k:k + chunk]))
        assert out == expected[:len(out)]
        torn = decoder.buffered_bytes
        try:
            decoder.finish()
            clean = True
        except NetworkError:
            clean = False
        # Clean end iff the cut fell exactly on a frame boundary.
        assert clean == (torn == 0)

    def test_decoder_poisoned_after_error(self):
        decoder = FrameDecoder()
        with pytest.raises(NetworkError):
            decoder.feed(b"XX" + b"\x00" * 10)  # bad magic
        with pytest.raises(NetworkError):
            decoder.feed(b"")
        with pytest.raises(NetworkError):
            decoder.finish()


class TestFramingDamage:
    def _frame(self, body=None):
        return encode_frame(FrameType.QUERY, body or {"id": "r"})

    def test_bad_magic(self):
        data = b"ZZ" + self._frame()[2:]
        with pytest.raises(NetworkError) as exc:
            FrameDecoder().feed(data)
        assert "magic" in str(exc.value)

    def test_bad_version(self):
        data = bytearray(self._frame())
        data[2] = 42
        with pytest.raises(NetworkError) as exc:
            FrameDecoder().feed(bytes(data))
        assert "version" in str(exc.value)

    def test_unknown_frame_type(self):
        data = bytearray(self._frame())
        data[3] = 200
        with pytest.raises(NetworkError) as exc:
            FrameDecoder().feed(bytes(data))
        assert "frame type" in str(exc.value)

    def test_oversized_length_prefix_is_damage_not_allocation(self):
        header = struct.pack(
            ">2sBBI", b"XS", 1, FrameType.QUERY, MAX_FRAME_BYTES + 1
        )
        with pytest.raises(NetworkError) as exc:
            FrameDecoder().feed(header)
        assert "ceiling" in str(exc.value)

    def test_every_single_byte_flip_is_detected(self):
        data = self._frame({"id": "r1", "k": 7})
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0xFF
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(bytes(flipped))
                decoder.finish()
            except NetworkError:
                continue  # detected: typed
            # A flip that still decodes must not silently alter the
            # message: it can only have grown the length prefix into
            # a wait-for-more (finish would then raise) -- so reaching
            # here with frames decoded means corruption slipped by.
            assert not frames, "byte flip at %d went undetected" % index

    def test_non_json_payload_is_typed(self):
        payload = b"\xff\xfe not json"
        import zlib
        header = struct.pack(">2sBBI", b"XS", 1, FrameType.QUERY,
                             len(payload))
        frame = header + payload + struct.pack(
            ">I", zlib.crc32(header + payload)
        )
        with pytest.raises(NetworkError):
            FrameDecoder().feed(frame)

    def test_non_object_payload_is_typed(self):
        with pytest.raises(NetworkError):
            decode_body(json.dumps([1, 2, 3]).encode(), 0)


class TestErrorsOverTheWire:
    """error_body/error_from_body keep code, exit code and context."""

    CASES = [
        OverloadedError(7, 8, 0.03, reason="at capacity"),
        DeadlineExceededError(1.5, 1.0, site="xst.cross"),
        BudgetExceededError("rows", 100, 50, site="xst.cross"),
        WriteConflictError(["emp", "dept"], 3, 5),
        SessionError("auth rejected", session_id="s9"),
        NetworkError("torn frame", frame=4),
        CircuitOpenError("emp", 2, "node-a", retry_after_ops=6),
        ClusterUnavailableError("emp", 1, replicas=("a", "b")),
    ]

    @pytest.mark.parametrize(
        "error", CASES, ids=[type(e).__name__ for e in CASES]
    )
    def test_round_trip_preserves_class_and_codes(self, error):
        body = error_body(error, request_id="r1")
        assert body["id"] == "r1"
        # The body must survive canonical JSON (the wire format).
        body = json.loads(json.dumps(body))
        rebuilt = error_from_body(body)
        assert type(rebuilt) is type(error)
        assert rebuilt.code == error.code
        assert rebuilt.exit_code == error.exit_code

    def test_write_conflict_context_round_trips(self):
        body = json.loads(json.dumps(
            error_body(WriteConflictError(["emp"], 3, 5))
        ))
        rebuilt = error_from_body(body)
        assert rebuilt.tables == ("emp",)
        assert rebuilt.read_version == 3
        assert rebuilt.committed_version == 5
        assert rebuilt.retry_after_s == 0.0

    def test_retry_after_rides_along(self):
        body = error_body(OverloadedError(8, 8, 0.25))
        assert body["retry_after_s"] == 0.25
        assert error_from_body(body).retry_after_s == 0.25

    def test_unknown_availability_code_degrades_to_base(self):
        rebuilt = error_from_body(
            {"code": "UNAVAILABLE", "message": "m", "context": {}}
        )
        assert type(rebuilt) is UnavailableError

    def test_untyped_errors_travel_as_generic(self):
        body = error_body(ValueError("boom"))
        assert body["code"] == "ERROR"
        assert body["exit_code"] == 2
        rebuilt = error_from_body(body)
        assert isinstance(rebuilt, XSTError)


class TestWithin:
    """The wire's one deadline: a timer that cancels the waiting task,
    turned into ``TimeoutError``; it spawns no task of its own."""

    def test_the_awaited_value_comes_through(self):
        async def main():
            future = asyncio.get_running_loop().create_future()
            asyncio.get_running_loop().call_soon(future.set_result, 7)
            assert await within(future, 0.01) == 7
            assert await within(asyncio.sleep(0, "ready"), 0.01) == "ready"
            # The timers were withdrawn: outliving them cancels nothing.
            await asyncio.sleep(0.03)

        asyncio.run(main())

    def test_expiry_raises_timeout_error(self):
        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await within(asyncio.sleep(10), 0.01)
            # The task goes on: a later wait is not cancelled.
            assert await within(asyncio.sleep(0.01, "after"), 1.0) == "after"

        asyncio.run(main())

    def test_an_outside_cancel_arrives_as_a_cancel(self):
        async def main():
            task = asyncio.get_running_loop().create_task(
                within(asyncio.sleep(10), 5.0)
            )
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert task.cancelled()

        asyncio.run(main())

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Task.cancelling() is Python 3.11+")
    def test_a_timeout_leaves_the_task_not_cancelling(self):
        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await within(asyncio.sleep(10), 0.01)
            assert asyncio.current_task().cancelling() == 0

        asyncio.run(main())
