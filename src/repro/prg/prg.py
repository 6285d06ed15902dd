"""Seeded, reproducible pseudo-random generation.

Section 4.2 of the paper observes that the client does not need to store
its share tree: "Since the client polynomials are generated by a random
sequence generator only the seed has to be stored on the client."  This
module provides that generator.

Design
------
* :class:`DeterministicPRG` is a SHA-256 counter-mode byte stream keyed by
  a client seed.  It exposes integer and ring-element sampling helpers.
* Independent sub-streams are derived per *label* (for the scheme: the
  node identifier), so the client can regenerate the share of any single
  node without replaying the whole stream — exactly what the interactive
  query protocol needs.
* Everything is deterministic given ``(seed, label)``; no global state.

This is an engineering instantiation of the paper's "random sequence
generator"; any cryptographic PRF would do.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Iterable, List, Optional, Sequence, Union

from ..algebra.vkernels import numpy_or_none

__all__ = ["derive_seed", "SeededStream", "DeterministicPRG"]

_BLOCK_BYTES = 32  # SHA-256 output size


def _to_bytes(value: Union[bytes, str, int]) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        length = max(1, (value.bit_length() + 7) // 8)
        return value.to_bytes(length, "big", signed=False)
    raise TypeError(f"cannot derive bytes from {type(value).__name__}")


def _pack_labels(labels: Iterable[Union[bytes, str, int]]) -> bytes:
    """Length-prefixed label encoding — the domain-separation invariant.

    Every derivation (:func:`derive_seed`, :meth:`DeterministicPRG.derive`,
    :meth:`SeededStream.fork`) must use this exact encoding so label paths
    stay collision-resistant and mutually consistent.
    """
    parts = []
    for label in labels:
        packed = _to_bytes(label)
        parts.append(len(packed).to_bytes(4, "big"))
        parts.append(packed)
    return b"".join(parts)


def derive_seed(master_seed: Union[bytes, str, int],
                *labels: Union[bytes, str, int]) -> bytes:
    """Derive an independent sub-seed from a master seed and a label path.

    Uses HMAC-SHA256 as a key-derivation function; the derivation is
    collision-resistant in the label path (labels are length-prefixed).
    """
    key = _to_bytes(master_seed)
    return hmac.new(key, b"repro.derive" + _pack_labels(labels),
                    hashlib.sha256).digest()


class SeededStream:
    """An endless deterministic byte stream (SHA-256 in counter mode).

    Block ``i`` is ``HMAC-SHA256(seed, i)``.  The HMAC key pads are
    precomputed once so that producing a block costs two hash-object
    copies instead of a full ``hmac.new`` construction — the stream is the
    inner loop of share regeneration, and this matters there.  The output
    is bit-identical to ``hmac.new(seed, counter, sha256)``.
    """

    _IPAD = bytes(b ^ 0x36 for b in range(256))
    _OPAD = bytes(b ^ 0x5C for b in range(256))

    def __init__(self, seed: Union[bytes, str, int]) -> None:
        self._key = _to_bytes(seed)
        key = self._key
        if len(key) > 64:
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\x00")
        self._inner = hashlib.sha256(key.translate(self._IPAD))
        self._outer = hashlib.sha256(key.translate(self._OPAD))
        self._prefix = b""
        self._counter = 0
        self._buffer = b""

    def fork(self, *labels: Union[bytes, str, int]) -> "SeededStream":
        """An independent sub-stream for a label path, sharing this key.

        Blocks of a fork are ``HMAC(key, packed_labels || counter)`` —
        domain-separated from the parent (whose block input is the bare
        8-byte counter) and from every other label path, because labels are
        length-prefixed.  Forking reuses the precomputed key pads, so it is
        much cheaper than deriving a new seed per sub-stream; this is the
        per-node share path.
        """
        if not labels:
            raise ValueError(
                "fork requires at least one label; an unlabelled fork would "
                "duplicate the parent stream instead of being independent")
        child = object.__new__(SeededStream)
        child._key = self._key
        child._inner = self._inner
        child._outer = self._outer
        child._prefix = self._prefix + _pack_labels(labels)
        child._counter = 0
        child._buffer = b""
        return child

    def _block(self, counter: int) -> bytes:
        inner = self._inner.copy()
        inner.update(self._prefix + counter.to_bytes(8, "big"))
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def read(self, n: int) -> bytes:
        """Next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if len(self._buffer) < n:
            blocks = [self._buffer]
            have = len(self._buffer)
            while have < n:
                blocks.append(self._block(self._counter))
                self._counter += 1
                have += _BLOCK_BYTES
            self._buffer = b"".join(blocks)
        result, self._buffer = self._buffer[:n], self._buffer[n:]
        return result

    def read_int(self, bits: int) -> int:
        """A non-negative integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        n_bytes = (bits + 7) // 8
        value = int.from_bytes(self.read(n_bytes), "big")
        return value >> (n_bytes * 8 - bits)

    def randint_below(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            candidate = self.read_int(bits)
            if candidate < bound:
                return candidate

    def randint(self, low: int, high: int) -> int:
        """A uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError("empty range")
        return low + self.randint_below(high - low + 1)

    def residues(self, count: int, bound: int) -> List[int]:
        """``count`` uniform integers in ``[0, bound)`` via bulk rejection.

        Reads the stream in one chunk per round and slices fixed-width
        candidates out of it, which is far cheaper than ``count`` separate
        :meth:`randint_below` calls — this is the share-polynomial hot path.
        Deterministic in the stream position, like every other read.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        n_bytes = (bits + 7) // 8
        shift = n_bytes * 8 - bits
        out: List[int] = []
        from_bytes = int.from_bytes
        while len(out) < count:
            need = count - len(out)
            # Round the read up to whole stream blocks and consume all of it:
            # rejections are then usually absorbed without a second block.
            request = -(-(need * n_bytes) // _BLOCK_BYTES) * _BLOCK_BYTES
            chunk = self.read(request)
            if n_bytes == 1:
                # Single-byte limbs (bound < 256): iterate the bytes directly.
                out.extend(v for b in chunk if (v := b >> shift) < bound)
            else:
                candidates = [
                    from_bytes(chunk[i:i + n_bytes], "big") >> shift
                    for i in range(0, n_bytes * (len(chunk) // n_bytes), n_bytes)
                ]
                out.extend(v for v in candidates if v < bound)
        del out[count:]
        return out

    def fork_residues(self, labels: Sequence[Union[bytes, str, int]],
                      count: int, bound: int):
        """``fork(label).residues(count, bound)`` for many labels at once.

        Returns an ``(len(labels), count)`` int64 ndarray whose row ``i``
        is exactly ``self.fork(labels[i]).residues(count, bound)``.  The
        rows are drawn the way :meth:`residues` draws them, round by round:
        a row short of ``count`` accepted values reads
        ``ceil(need * limb_bytes / 32)`` whole blocks, slices them into
        big-endian limbs, drops each round's tail bytes when the limb width
        does not divide the block (3-byte limbs), and keeps the first
        ``need`` candidates below ``bound``.  Only the hashing stays a
        Python loop (the same ``HMAC(key, prefix || counter)`` blocks
        :meth:`_block` computes); slicing and rejection run over every row
        of a round in a few array operations.  Requires numpy and limbs of
        at most 4 bytes (``bound < 2**32``).
        """
        np = numpy_or_none()
        if np is None:
            raise RuntimeError("fork_residues requires numpy")
        if count < 0:
            raise ValueError("count must be non-negative")
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        n_bytes = (bits + 7) // 8
        if n_bytes > 4:
            raise ValueError("fork_residues handles limbs of at most 4 bytes")
        shift = n_bytes * 8 - bits
        out = np.zeros((len(labels), count), dtype=np.int64)
        if not len(labels) or not count:
            return out
        # `_pack_labels((label,))` per label, without its per-call loop.
        packed = [label.to_bytes(max(1, (label.bit_length() + 7) // 8), "big")
                  if type(label) is int else _to_bytes(label)
                  for label in labels]
        prefixes = [self._prefix + len(part).to_bytes(4, "big") + part
                    for part in packed]
        filled = np.zeros(len(labels), dtype=np.int64)
        counters = np.zeros(len(labels), dtype=np.int64)
        columns = np.arange(count)
        short = np.arange(len(labels))
        # The first round reads the same number of blocks for every row.
        rounds = [(short, -(-count * n_bytes // _BLOCK_BYTES))]
        while rounds:
            for rows, size in rounds:
                values = self._limbs(
                    [prefixes[row] for row in rows.tolist()],
                    counters[rows].tolist(), size, n_bytes) >> shift
                counters[rows] += size
                accepted = values < bound
                totals = accepted.sum(axis=1)
                # Accepted limbs of every row, concatenated in row order;
                # output column c of a row takes its (c - filled)-th one.
                flat = values[accepted]
                offset = columns - filled[rows][:, None]
                take = (offset >= 0) & (offset < totals[:, None])
                start = np.cumsum(totals) - totals
                block = out[rows]
                block[take] = flat[(start[:, None] + offset)[take]]
                out[rows] = block
                filled[rows] = np.minimum(filled[rows] + totals, count)
            short = short[filled[short] < count]
            blocks = -(-(count - filled[short]) * n_bytes // _BLOCK_BYTES)
            rounds = [(short[blocks == size], size)
                      for size in np.unique(blocks).tolist()]
        return out

    def _limbs(self, prefixes: List[bytes], starts: List[int], blocks: int,
               n_bytes: int):
        """Big-endian limbs of ``blocks`` stream blocks per fork, as int64.

        Row ``i`` reads blocks ``starts[i] ..`` of the fork whose label
        prefix is ``prefixes[i]`` and holds ``blocks * 32 // n_bytes`` limbs;
        a 3-byte width drops the bytes past the last whole limb, as one
        :meth:`residues` round does.
        """
        np = numpy_or_none()
        inner_copy, outer_copy = self._inner.copy, self._outer.copy
        parts: List[bytes] = []
        for prefix, start in zip(prefixes, starts):
            for counter in range(start, start + blocks):
                inner = inner_copy()
                inner.update(prefix + counter.to_bytes(8, "big"))
                outer = outer_copy()
                outer.update(inner.digest())
                parts.append(outer.digest())
        data = b"".join(parts)
        per_row = blocks * _BLOCK_BYTES // n_bytes
        if n_bytes == 3:
            raw = np.frombuffer(data, dtype=np.uint8).reshape(
                len(prefixes), blocks * _BLOCK_BYTES)[:, :3 * per_row]
            raw = raw.reshape(len(prefixes), per_row, 3).astype(np.int64)
            return raw[:, :, 0] << 16 | raw[:, :, 1] << 8 | raw[:, :, 2]
        return np.frombuffer(data, dtype=f">u{n_bytes}").reshape(
            len(prefixes), per_row).astype(np.int64)


class DeterministicPRG:
    """Keyed pseudo-random generator with per-label independent streams.

    The scheme keys one :class:`DeterministicPRG` with the client's secret
    seed; the share of node ``i`` is produced from ``stream(i)``, so shares
    are reproducible node by node in any order.
    """

    def __init__(self, seed: Union[bytes, str, int]) -> None:
        self.seed = _to_bytes(seed)
        # Keyed prototype for derive_seed(seed, ...): copies of it skip the
        # per-call HMAC key schedule (identical digests, see derive_seed).
        self._derive_proto = hmac.new(self.seed, b"repro.derive", hashlib.sha256)

    def derive(self, *labels: Union[bytes, str, int]) -> bytes:
        """Same digest as ``derive_seed(self.seed, *labels)``, amortised."""
        h = self._derive_proto.copy()
        h.update(_pack_labels(labels))
        return h.digest()

    def stream(self, *labels: Union[bytes, str, int]) -> SeededStream:
        """Independent byte stream for a label path."""
        return SeededStream(self.derive(*labels))

    def python_random(self, *labels: Union[bytes, str, int]) -> random.Random:
        """A :class:`random.Random` seeded deterministically for a label path.

        Handy where library code expects the stdlib ``Random`` interface
        (for example :meth:`repro.algebra.quotient.EncodingRing.random_element`).
        """
        material = self.derive(*labels)
        return random.Random(int.from_bytes(material, "big"))

    def child(self, *labels: Union[bytes, str, int]) -> "DeterministicPRG":
        """A PRG keyed by a derived sub-seed (domain separation)."""
        return DeterministicPRG(derive_seed(self.seed, *labels))

    @classmethod
    def generate(cls, entropy_source: Optional[random.Random] = None) -> "DeterministicPRG":
        """A PRG with a freshly generated 256-bit seed."""
        entropy_source = entropy_source or random.SystemRandom()
        return cls(entropy_source.getrandbits(256))
