"""Length-prefixed framing for the socket transports.

The in-process :class:`~repro.net.channel.InstrumentedChannel` hands whole
message encodings to the handler, so it never needed delimiting.  Real
sockets deliver a byte stream, so the socket transport
(:class:`~repro.net.server.ThreadedSearchServer`) and its client
(:class:`~repro.net.channel.SocketChannel`) wrap every message encoding
in a frame::

    +----------------+----------------------+
    | length (4B BE) | payload (length B)   |
    +----------------+----------------------+

``length`` is an unsigned 32-bit big-endian integer counting the payload
bytes only.  The payload is exactly one message encoding
(:meth:`repro.net.messages.Message.encode`) — framing adds delimiting, not
a new message format, so a captured payload decodes with
:func:`repro.net.messages.decode_message` unchanged.

Frames above ``max_frame_bytes`` are rejected *from the length prefix
alone*, before any payload is buffered, so a malicious or broken peer
cannot make the receiver allocate unbounded memory.  Zero-length frames
are rejected too: no message encodes to zero bytes, so an empty frame is
always a framing bug.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from ..errors import ProtocolError

__all__ = [
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame_length",
    "FrameAssembler",
]

#: Size of the length prefix in bytes.
FRAME_HEADER_BYTES = 4

#: Default ceiling on a single frame's payload (16 MiB).  Large enough for
#: any frontier response the benchmarks produce, small enough that a bad
#: length prefix cannot trigger a giant allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(payload: bytes,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap one message encoding in a length-prefixed frame."""
    if not payload:
        raise ProtocolError("refusing to send an empty frame")
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit")
    return _HEADER.pack(len(payload)) + payload


def decode_frame_length(header: bytes,
                        max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate a frame header and return the payload length it announces."""
    if len(header) != FRAME_HEADER_BYTES:
        raise ProtocolError(
            f"frame header must be {FRAME_HEADER_BYTES} bytes, "
            f"got {len(header)}")
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("received an empty frame")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"peer announced a {length}-byte frame, above the "
            f"{max_frame_bytes}-byte frame limit")
    return length


class FrameAssembler:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks with :meth:`feed`; completed frame payloads come
    back in arrival order.  The assembler validates each length prefix as
    soon as the four header bytes are available, so an oversized
    announcement is rejected before its payload is ever buffered.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._expected: Optional[int] = None
        self._poison: Optional[ProtocolError] = None

    @property
    def poisoned(self) -> bool:
        """True once the stream has been rejected; no further bytes decode.

        After an invalid length prefix there is no way to find the next
        frame boundary in the byte stream, so instead of silently
        misparsing whatever follows, the assembler stays poisoned: every
        later :meth:`feed` re-raises the original rejection.  The owner
        of the stream must drop the connection (which every transport
        does).
        """
        return self._poison is not None

    def feed(self, data: bytes) -> List[bytes]:
        """Consume a chunk of stream bytes; return any completed payloads.

        Raises :class:`~repro.errors.ProtocolError` — naming the
        offending announced length and the limit — on an invalid length
        prefix, and poisons the assembler (see :attr:`poisoned`).  Short
        reads are not errors: a frame split across arbitrarily many feeds
        assembles normally once its bytes are complete.
        """
        if self._poison is not None:
            raise self._poison
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            if self._expected is None:
                if len(self._buffer) < FRAME_HEADER_BYTES:
                    break
                header = bytes(self._buffer[:FRAME_HEADER_BYTES])
                try:
                    expected = decode_frame_length(header,
                                                   self.max_frame_bytes)
                except ProtocolError as exc:
                    self._poison = exc
                    raise
                del self._buffer[:FRAME_HEADER_BYTES]
                self._expected = expected
            if len(self._buffer) < self._expected:
                break
            frames.append(bytes(self._buffer[:self._expected]))
            del self._buffer[:self._expected]
            self._expected = None
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)

    def at_boundary(self) -> bool:
        """True when the stream may end cleanly here (no partial frame)."""
        return self._expected is None and not self._buffer
