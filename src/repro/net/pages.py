"""Binary paged coefficient encoding for the durable share store.

The v1 SQLite store kept every share polynomial as a JSON text row
(``"[12,0,7,...]"``), which dominated the file size: a coefficient that
fits in six bits costs three to four bytes of decimal digits plus a comma.
The v2 format replaces those rows with a compact binary encoding:

* a coefficient vector is serialised as a fixed header followed by
  **fixed-width little-endian limbs** — one limb per coefficient, the limb
  width (in *bits*) chosen per share as the smallest width that holds its
  largest coefficient, limbs packed back to back into a little-endian
  bitstream (a width that is a multiple of 8 degenerates to plain
  byte-aligned little-endian integers).  Signed coefficients, which occur
  in the ``Z[x]/(r)`` ring, are zigzag-mapped to unsigned limbs first;
* the resulting blob is stored as a **head segment** inline in the node
  row plus zero or more fixed-size **overflow pages** (one SQLite row
  each), so the common small share costs a single row while a single
  oversized share (the integer ring's coefficients grow with the subtree
  product) never creates a pathological row and partial reads/writes stay
  bounded.

The codec is lossless for arbitrary Python integers (any sign, any
magnitude) and round-trips the empty vector (the zero polynomial) and
constant shares; :mod:`tests.test_pages` asserts this property-based.

Alongside the reference int codec live **array codecs**
(:func:`encode_coefficients_array`, :func:`decode_coefficients_array`,
:func:`decode_coefficients_batch`): byte-identical encoders and decoders
that move blobs to/from numpy ``int64`` arrays without materialising a
Python int per coefficient.  Byte-aligned limb widths decode as a
``frombuffer`` view widened to 8-byte lanes; odd widths go through one
vectorized ``unpackbits``/weight-dot pass.  The batch decoder additionally
groups blobs by identical ``(flags, width, count)`` header so a whole
SELECT's worth of shares decodes in a handful of array ops — the zero-copy
half of the vectorized evaluation pipeline.  Decoders return ``None``
(never wrong answers) whenever numpy is absent or a limb exceeds the
native 64-bit width; callers fall back to the reference codec.

The same blobs also travel on the wire: protocol v4 carries every numeric
section of a ``frontier-ok`` response (node ids, evaluations, child lists,
share rows) as one blob each, through :func:`encode_coefficients_array`
and :func:`decode_int_vector`, which pick the array or the reference
codec per vector.  Both codecs are linear in the vector length.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from ..algebra.vkernels import numpy_or_none
from ..errors import ProtocolError

__all__ = [
    "PAGE_FORMAT_VERSION",
    "DEFAULT_PAGE_BYTES",
    "encode_coefficients",
    "decode_coefficients",
    "blob_count",
    "encode_coefficients_array",
    "decode_coefficients_array",
    "decode_coefficients_batch",
    "decode_int_vector",
    "split_pages",
    "join_pages",
]

#: Version byte of the binary coefficient encoding (bumped on layout changes).
PAGE_FORMAT_VERSION = 1

#: Default byte budget per segment: the head segment kept inline in the
#: node row, and each overflow page row.
DEFAULT_PAGE_BYTES = 4096

#: Blob header: version, flags, limb width in bits, coefficient count.
_HEADER = struct.Struct("<BBII")

#: Flag bit: limbs are zigzag-encoded signed values.
_FLAG_ZIGZAG = 0x01

#: Target bits per group in the reference codec.  Each group is one
#: Python int, so one group costs time quadratic in its size while the
#: number of groups grows linearly with the vector; groups of about 2 kbit
#: keep both small, and a share-sized vector is a single group.
_GROUP_BITS = 2048

#: Shortest list the list-facing codecs (:func:`encode_coefficients_array`
#: given a list, :func:`decode_int_vector`) move through numpy; shorter
#: ones take the reference codec, which is faster below it because
#: numpy's per-call cost exceeds the work.
_ARRAY_MIN_VALUES = 64

#: Limbs per chunk in the array encoder's odd-width path (a multiple of
#: eight, so every chunk but the last ends on a byte boundary);
#: bounds its bit-matrix temporaries to at most 64 bytes per limb of one
#: chunk, whatever the vector length.
_ENCODE_CHUNK = 1 << 14


def _zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (order-preserving around 0)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def encode_coefficients(coeffs: Sequence[int]) -> bytes:
    """Serialise a coefficient vector into one binary blob.

    The limb width is the smallest number of bits that holds the largest
    (zigzag-mapped, when any coefficient is negative) value; an all-zero
    vector uses width 0 and carries no payload at all.  Limbs are packed
    in groups of a multiple of eight (eight ``width``-bit limbs fill
    exactly ``width`` bytes), one integer per group, so the cost stays
    linear in the vector length.
    """
    values = [int(c) for c in coeffs]
    flags = 0
    if values and min(values) < 0:
        flags |= _FLAG_ZIGZAG
        values = [_zigzag(value) for value in values]
    width = max(values, default=0).bit_length()
    if width > 0xFFFFFFFF or len(values) > 0xFFFFFFFF:
        raise ProtocolError("coefficient vector exceeds the page encoding "
                            "limits (2^32 bits per limb / 2^32 limbs)")
    header = _HEADER.pack(PAGE_FORMAT_VERSION, flags, width, len(values))
    if width == 0:
        return header
    group = _group_limbs(width, len(values))
    group_bytes = group * width // 8
    remaining = (len(values) * width + 7) // 8
    shifts = range(0, group * width, width)
    chunks = [header]
    for start in range(0, len(values), group):
        stream = 0
        for value, shift in zip(values[start:start + group], shifts):
            stream |= value << shift
        chunks.append(stream.to_bytes(min(group_bytes, remaining), "little"))
        remaining -= group_bytes
    return b"".join(chunks)


def _group_limbs(width: int, count: int) -> int:
    """Limbs per reference-codec group: a multiple of eight (whole bytes)
    of about :data:`_GROUP_BITS` bits, and no more than ``count`` needs."""
    limbs = 8 * max(1, _GROUP_BITS // (8 * width))
    return min(limbs, (count + 7) // 8 * 8)


def _parse_header(blob: bytes) -> Tuple[int, int, int]:
    """Validate a blob's header and length; return ``(flags, width, count)``."""
    if len(blob) < _HEADER.size:
        raise ProtocolError(
            f"coefficient blob of {len(blob)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    version, flags, width, count = _HEADER.unpack_from(blob)
    if version != PAGE_FORMAT_VERSION:
        raise ProtocolError(
            f"coefficient blob has format version {version}; this build "
            f"reads version {PAGE_FORMAT_VERSION}")
    expected = _HEADER.size + (count * width + 7) // 8
    if len(blob) != expected:
        raise ProtocolError(
            f"coefficient blob is {len(blob)} bytes but the header announces "
            f"{count} limbs of {width} bits ({expected} bytes total)")
    return flags, width, count


def blob_count(blob: bytes) -> int:
    """How many values a blob holds, from its validated header alone."""
    return _parse_header(blob)[2]


def decode_coefficients(blob: bytes) -> List[int]:
    """Inverse of :func:`encode_coefficients` (loud on any corruption).

    Reads the payload in the encoder's groups, so decoding is linear in
    the vector length too.
    """
    flags, width, count = _parse_header(blob)
    if width == 0 or count == 0:
        return [0] * count
    payload = memoryview(blob)[_HEADER.size:]
    mask = (1 << width) - 1
    group = _group_limbs(width, count)
    group_bytes = group * width // 8
    values: List[int] = []
    stream = limbs = 0
    for offset, start in zip(range(0, len(payload), group_bytes),
                             range(0, count, group)):
        stream = int.from_bytes(payload[offset:offset + group_bytes], "little")
        limbs = min(group, count - start)
        values.extend([(stream >> shift) & mask
                       for shift in range(0, limbs * width, width)])
    if stream >> (limbs * width):
        raise ProtocolError(
            "coefficient blob has bits set beyond its announced "
            f"{count}×{width}-bit payload")
    if flags & _FLAG_ZIGZAG:
        values = [_unzigzag(value) for value in values]
    return values


def _native_width_limit(flags: int) -> int:
    """Largest limb width (bits) the array decoders handle for ``flags``.

    Plain limbs up to 63 bits fit a signed int64; zigzag limbs stop at 62
    because unzigzag computes ``value + 1`` before halving.
    """
    return 62 if flags & _FLAG_ZIGZAG else 63


def encode_coefficients_array(values) -> bytes:
    """Serialise an int vector through numpy, byte-identical to the int codec.

    Accepts an integer ndarray or any sequence of ints, which is converted
    to ``int64`` when every value fits.  What the array path cannot express
    — numpy absent, a value beyond ``int64``, magnitudes at or beyond
    ``2^62`` where the zigzag shift would overflow — is routed through
    :func:`encode_coefficients`, and so is a sequence shorter than
    :data:`_ARRAY_MIN_VALUES`.  The produced blob is byte-for-byte what
    :func:`encode_coefficients` yields for the same values, so the two
    encoders are interchangeable on disk and on the wire.
    """
    np = numpy_or_none()
    if np is None:
        return encode_coefficients(values)
    if not isinstance(values, np.ndarray):
        if len(values) < _ARRAY_MIN_VALUES:
            return encode_coefficients(values)
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            return encode_coefficients(values)
    if values.dtype.kind != "i" or values.ndim != 1:
        return encode_coefficients([int(v) for v in values])
    values = values.astype(np.int64, copy=False)
    count = int(values.size)
    flags = 0
    if count == 0:
        width = 0
    else:
        low = int(values.min())
        high = int(values.max())
        if low < 0:
            if low <= -(1 << 62) or high >= (1 << 62):
                return encode_coefficients(values.tolist())
            flags = _FLAG_ZIGZAG
            values = np.where(values >= 0,
                              values << 1, ((-values) << 1) - 1)
            width = int(values.max()).bit_length()
        else:
            width = high.bit_length()
    header = _HEADER.pack(PAGE_FORMAT_VERSION, flags, width, count)
    if width == 0:
        return header
    lanes = values.astype("<u8").view(np.uint8).reshape(count, 8)
    if width % 8 == 0:
        return header + lanes[:, :width // 8].tobytes()
    lanes = lanes[:, :(width + 7) // 8]
    chunks = [header]
    for start in range(0, count, _ENCODE_CHUNK):
        bits = np.unpackbits(lanes[start:start + _ENCODE_CHUNK], axis=1,
                             bitorder="little")[:, :width]
        chunks.append(np.packbits(bits.ravel(), bitorder="little").tobytes())
    return b"".join(chunks)


def decode_coefficients_array(blob: bytes):
    """Decode one blob to an ``int64`` ndarray, or None when not expressible.

    ``None`` means "use :func:`decode_coefficients`" — returned when numpy
    is absent or the limb width exceeds the native 64-bit lane.  Corruption
    still raises :class:`ProtocolError` exactly like the reference decoder.
    """
    rows = decode_coefficients_batch([blob])
    return None if rows is None else rows[0]


def decode_coefficients_batch(blobs: Sequence[bytes]):
    """Decode many blobs to ``int64`` ndarrays in a few vectorized passes.

    Blobs are grouped by identical ``(flags, width, count)`` header; each
    group's payloads are joined and decoded in one ``frombuffer`` view
    (byte-aligned widths) or one ``unpackbits``/weight-dot pass (odd
    widths).  Returns a list of ``(count,)`` int64 arrays parallel to
    ``blobs``, or ``None`` when numpy is absent or **any** blob's width
    exceeds the native lane — mixed-width fallback keeps the caller on one
    code path per batch.  Headers are validated (and raise) either way.
    """
    np = numpy_or_none()
    headers = [_parse_header(blob) for blob in blobs]
    if np is None:
        return None
    if any(width > _native_width_limit(flags)
           for flags, width, _ in headers):
        return None
    groups = {}
    for index, header in enumerate(headers):
        groups.setdefault(header, []).append(index)
    result: List[Optional[object]] = [None] * len(blobs)
    for (flags, width, count), indices in groups.items():
        if width == 0:
            for index in indices:
                result[index] = np.zeros(count, dtype=np.int64)
            continue
        payload_bytes = (count * width + 7) // 8
        joined = b"".join(blobs[index][_HEADER.size:] for index in indices)
        raw = np.frombuffer(joined, dtype=np.uint8)
        raw = raw.reshape(len(indices), payload_bytes)
        if width % 8 == 0:
            lane_bytes = width // 8
            lanes = np.zeros((len(indices), count, 8), dtype=np.uint8)
            lanes[:, :, :lane_bytes] = raw.reshape(len(indices), count,
                                                   lane_bytes)
            values = lanes.view("<u8")[:, :, 0].astype(np.int64)
        else:
            bits = np.unpackbits(raw, axis=1, bitorder="little")
            if bits[:, count * width:].any():
                raise ProtocolError(
                    "coefficient blob has bits set beyond its announced "
                    f"{count}×{width}-bit payload")
            weights = np.int64(1) << np.arange(width, dtype=np.int64)
            values = bits[:, :count * width].astype(np.int64)
            values = values.reshape(len(indices), count, width) @ weights
        if flags & _FLAG_ZIGZAG:
            values = np.where(values & 1,
                              -((values + 1) >> 1), values >> 1)
        for row, index in enumerate(indices):
            result[index] = values[row]
    return result


def decode_int_vector(blob: bytes) -> List[int]:
    """Decode one blob to a list of Python ints, through numpy when it can
    and the blob holds at least :data:`_ARRAY_MIN_VALUES` values."""
    if blob_count(blob) < _ARRAY_MIN_VALUES:
        return decode_coefficients(blob)
    values = decode_coefficients_array(blob)
    return decode_coefficients(blob) if values is None else values.tolist()


def split_pages(blob: bytes, page_bytes: int = DEFAULT_PAGE_BYTES) -> List[bytes]:
    """Cut a blob into segments of at most ``page_bytes`` each.

    Segment 0 is the head kept inline in the node row; segments 1+ are the
    overflow page rows.  Every encoded share has a non-empty head (the
    header alone is 10 bytes), so a stored node always has one.
    """
    if page_bytes <= 0:
        raise ProtocolError(f"page size must be positive, not {page_bytes}")
    if not blob:
        raise ProtocolError("refusing to page an empty blob")
    return [bytes(blob[offset:offset + page_bytes])
            for offset in range(0, len(blob), page_bytes)]


def join_pages(pages: Sequence[bytes]) -> bytes:
    """Reassemble segments (head first, overflow in page order)."""
    if not pages:
        raise ProtocolError("a stored share has no segments; the store is torn")
    return b"".join(pages)
