"""Property-based round-trips for the binary paged coefficient codec."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import numpy_or_none
from repro.errors import ProtocolError
from repro.net import pages
from repro.net.pages import (
    DEFAULT_PAGE_BYTES,
    decode_coefficients,
    decode_coefficients_array,
    decode_coefficients_batch,
    decode_int_vector,
    encode_coefficient_rows,
    encode_coefficients,
    encode_coefficients_array,
    join_pages,
    split_pages,
)

coefficient_vectors = st.lists(
    st.integers(min_value=-(2 ** 96), max_value=2 ** 96), max_size=80)

#: Vectors whose limbs stay within the array decoders' native 64-bit lane
#: (zigzag limbs stop at 62 bits, so magnitudes stay below 2^61).
native_vectors = st.lists(
    st.integers(min_value=-(2 ** 61) + 1, max_value=2 ** 61 - 1), max_size=80)

numpy_present = pytest.mark.skipif(numpy_or_none() is None,
                                   reason="numpy not installed")


class TestCoefficientCodec:
    @given(coefficient_vectors)
    def test_round_trip(self, coeffs):
        assert decode_coefficients(encode_coefficients(coeffs)) == coeffs

    def test_empty_vector(self):
        # The zero polynomial: no coefficients at all.
        assert decode_coefficients(encode_coefficients([])) == []

    def test_constant_share(self):
        assert decode_coefficients(encode_coefficients([7])) == [7]
        assert decode_coefficients(encode_coefficients([-3])) == [-3]

    @given(st.integers(min_value=0, max_value=40))
    def test_all_zero_vector_has_no_payload(self, count):
        blob = encode_coefficients([0] * count)
        assert decode_coefficients(blob) == [0] * count
        # Width-0 limbs: the header alone carries the whole vector.
        assert len(blob) == len(encode_coefficients([]))

    def test_sub_byte_limbs_pack_tightly(self):
        # 52 residues below 53 need 6-bit limbs: 39 payload bytes, not 52.
        coeffs = [i % 53 for i in range(52)]
        blob = encode_coefficients(coeffs)
        assert len(blob) - len(encode_coefficients([])) == (52 * 6 + 7) // 8
        assert decode_coefficients(blob) == coeffs

    def test_truncated_blob_rejected(self):
        blob = encode_coefficients([5, 6, 7])
        with pytest.raises(ProtocolError):
            decode_coefficients(blob[:-1])
        with pytest.raises(ProtocolError):
            decode_coefficients(blob + b"\x00")
        with pytest.raises(ProtocolError):
            decode_coefficients(b"\x01")

    def test_unknown_version_rejected(self):
        blob = encode_coefficients([5, 6, 7])
        with pytest.raises(ProtocolError):
            decode_coefficients(b"\x7f" + blob[1:])

    def test_stray_high_bits_rejected(self):
        blob = bytearray(encode_coefficients([1, 1, 1]))
        blob[-1] |= 0x80          # beyond the announced 3x1-bit payload
        with pytest.raises(ProtocolError):
            decode_coefficients(bytes(blob))


@numpy_present
class TestArrayCodec:
    """The array codecs are byte- and value-identical to the int codec."""

    @settings(max_examples=80, deadline=None)
    @given(native_vectors)
    def test_array_decode_matches_reference(self, coeffs):
        blob = encode_coefficients(coeffs)
        decoded = decode_coefficients_array(blob)
        assert decoded is not None
        assert decoded.tolist() == decode_coefficients(blob) == coeffs

    @settings(max_examples=80, deadline=None)
    @given(native_vectors)
    def test_array_encode_is_byte_identical(self, coeffs):
        np = numpy_or_none()
        values = np.asarray(coeffs, dtype=np.int64)
        assert encode_coefficients_array(values) == encode_coefficients(coeffs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40).flatmap(lambda width: st.lists(
        st.tuples(st.lists(st.integers(min_value=0, max_value=2 ** 52),
                           min_size=width, max_size=width),
                  st.integers(min_value=0, max_value=width)).map(
            lambda pair: pair[0][:pair[1]] + [0] * (width - pair[1])),
        min_size=1, max_size=12)))
    def test_row_encode_matches_per_trimmed_row(self, rows):
        np = numpy_or_none()
        expected = []
        for row in rows:
            count = len(row)
            while count and not row[count - 1]:
                count -= 1
            expected.append(encode_coefficients(row[:count]))
        assert encode_coefficient_rows(np.array(rows, dtype=np.int64)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(native_vectors, max_size=12))
    def test_batch_decode_matches_per_blob(self, vectors):
        blobs = [encode_coefficients(coeffs) for coeffs in vectors]
        rows = decode_coefficients_batch(blobs)
        assert rows is not None
        assert [row.tolist() for row in rows] == vectors

    def test_byte_aligned_and_odd_widths(self):
        # 8/16-bit limbs take the frombuffer view; 6- and 13-bit limbs the
        # vectorized unpackbits path.  All four must agree with reference.
        for values in ([255, 1, 128], [65535, 256, 3],
                       [i % 53 for i in range(52)], [4097, 8000, 1]):
            blob = encode_coefficients(values)
            assert decode_coefficients_array(blob).tolist() == values

    def test_empty_and_all_zero_vectors(self):
        assert decode_coefficients_array(encode_coefficients([])).tolist() == []
        assert decode_coefficients_array(
            encode_coefficients([0] * 9)).tolist() == [0] * 9
        # A header may announce zero limbs of a nonzero width.
        empty = pages._HEADER.pack(pages.PAGE_FORMAT_VERSION, 0, 5, 0)
        assert [row.tolist() for row in
                decode_coefficients_batch([empty, empty])] == [[], []]

    def test_zigzag_negative_values(self):
        values = [-1, 0, 7, -128, 2 ** 40, -(2 ** 40)]
        blob = encode_coefficients(values)
        assert decode_coefficients_array(blob).tolist() == values
        np = numpy_or_none()
        assert encode_coefficients_array(
            np.asarray(values, dtype=np.int64)) == blob

    def test_wide_limbs_fall_back_to_none(self):
        blob = encode_coefficients([2 ** 90])
        assert decode_coefficients_array(blob) is None
        # One wide blob sends the whole batch back to the reference path.
        narrow = encode_coefficients([1, 2, 3])
        assert decode_coefficients_batch([narrow, blob]) is None
        assert decode_coefficients_batch([narrow]) is not None

    def test_wide_encode_falls_back_to_reference(self):
        # Magnitudes at/beyond 2^62 cannot zigzag in int64; the array
        # encoder must route them through the int codec, not overflow.
        np = numpy_or_none()
        values = np.asarray([-(2 ** 62), 5], dtype=np.int64)
        assert (encode_coefficients_array(values)
                == encode_coefficients([-(2 ** 62), 5]))
        assert (encode_coefficients_array([2 ** 90, -1])
                == encode_coefficients([2 ** 90, -1]))

    def test_corruption_still_raises(self):
        blob = encode_coefficients([5, 6, 7])
        with pytest.raises(ProtocolError):
            decode_coefficients_array(blob[:-1])
        with pytest.raises(ProtocolError):
            decode_coefficients_batch([blob, blob[:-1]])
        stray = bytearray(encode_coefficients([1, 1, 1]))
        stray[-1] |= 0x80
        with pytest.raises(ProtocolError):
            decode_coefficients_array(bytes(stray))


def random_vector(width, signed, count, seed):
    """``count`` values needing exactly ``width``-bit limbs (zigzag if signed)."""
    rng = random.Random(seed)
    if not signed:
        values = [rng.getrandbits(width) for _ in range(count)]
        values[rng.randrange(count)] = (1 << width) - 1
        return values
    # Zigzag maps [-2^(w-1), 2^(w-1)) onto w-bit limbs.
    half = 1 << (width - 1)
    values = [rng.getrandbits(width) - half for _ in range(count)]
    values[rng.randrange(count)] = -half
    return values


def assert_codecs_agree(values):
    """Reference and array codecs: same bytes, same values back."""
    blob = encode_coefficients(values)
    assert decode_coefficients(blob) == values
    assert encode_coefficients_array(values) == blob
    assert decode_int_vector(blob) == values
    np = numpy_or_none()
    if np is None:
        return
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        array = None
    if array is not None:
        assert encode_coefficients_array(array) == blob
    decoded = decode_coefficients_array(blob)
    if decoded is not None:
        assert decoded.tolist() == values


class TestLongVectors:
    """Both codecs stay linear-time and byte-identical on long vectors."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=100), st.booleans(),
           st.integers(min_value=50_000, max_value=52_000),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_codecs_agree_on_long_vectors(self, width, signed, count, seed):
        assert_codecs_agree(random_vector(width, signed, count, seed))

    @pytest.mark.parametrize("signed", [False, True])
    def test_every_width_up_to_100(self, signed):
        for width in range(1, 101):
            assert_codecs_agree(random_vector(width, signed, 1003, width))


@numpy_present
class TestDecodeMemory:
    """The odd-width array decoder works in passes of bounded size."""

    #: Traced peak bytes a decode may take above its result's own bytes.
    BOUND = 3 << 19

    @staticmethod
    def decode_traced(blobs):
        """``(rows, peak traced bytes minus the rows' bytes)``."""
        tracemalloc.start()
        try:
            rows = decode_coefficients_batch(blobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rows, peak - sum(row.nbytes for row in rows)

    def test_one_round_of_share_rows_at_p53(self):
        # A response's share rows at p = 53 travel as one blob of 6-bit
        # limbs: 700 rows of 52 coefficients, 27.3 kB.
        values = random_vector(6, False, 700 * 52, 53)
        rows, overhead = self.decode_traced([encode_coefficients(values)])
        assert rows[0].tolist() == values
        assert overhead < self.BOUND

    def test_a_store_batch_at_p1021(self):
        # 300 shares of 1020 10-bit coefficients, one header group.
        vectors = [random_vector(10, False, 1020, seed) for seed in range(300)]
        rows, overhead = self.decode_traced(
            [encode_coefficients(values) for values in vectors])
        assert [row.tolist() for row in rows] == vectors
        assert overhead < self.BOUND

    @pytest.mark.parametrize("width", [1, 3, 6, 13, 31, 62])
    def test_small_passes_stay_bit_identical(self, width, monkeypatch):
        # Passes of 64 bits split rows into runs of eight limbs and batch
        # whole short rows; both cuts must leave every value in place.
        monkeypatch.setattr(pages, "_DECODE_BITS", 64)
        vectors = [random_vector(width, signed, count, seed)
                   for seed, (signed, count) in enumerate(
                       [(False, 9)] * 4 + [(True, 9)] * 3
                       + [(False, 3)] * 5 + [(False, 200)] * 2)]
        rows = decode_coefficients_batch(
            [encode_coefficients(values) for values in vectors])
        assert [row.tolist() for row in rows] == vectors
        stray = bytearray(encode_coefficients(vectors[0]))
        if 9 * width % 8:
            stray[-1] |= 0x80
            with pytest.raises(ProtocolError):
                decode_coefficients_batch([bytes(stray)])


class TestPaging:
    @settings(max_examples=60)
    @given(coefficient_vectors, st.integers(min_value=1, max_value=64))
    def test_split_join_round_trip(self, coeffs, page_bytes):
        blob = encode_coefficients(coeffs)
        pages = split_pages(blob, page_bytes)
        assert all(len(page) <= page_bytes for page in pages)
        assert all(pages[:-1]) and len(pages[-1]) > 0
        assert join_pages(pages) == blob
        assert decode_coefficients(join_pages(pages)) == coeffs

    def test_single_page_for_small_blobs(self):
        blob = encode_coefficients(list(range(20)))
        assert split_pages(blob, DEFAULT_PAGE_BYTES) == [blob]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ProtocolError):
            split_pages(b"")
        with pytest.raises(ProtocolError):
            split_pages(b"x", 0)
        with pytest.raises(ProtocolError):
            join_pages([])
