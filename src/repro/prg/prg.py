"""Seeded, reproducible pseudo-random generation.

Section 4.2 of the paper observes that the client does not need to store
its share tree: "Since the client polynomials are generated by a random
sequence generator only the seed has to be stored on the client."  This
module provides that generator.

Design
------
* :class:`DeterministicPRG` is keyed by a client seed.  Its
  :meth:`~DeterministicPRG.derive` is :func:`derive_seed`: HMAC-SHA256 of
  ``b"repro.derive"`` and length-prefixed labels, one 32-byte key per
  label path.
* Client shares come from :class:`XofStream`, SHAKE-256 keyed with the
  key of the label ``"node-share"``.  The share of node ``i`` is drawn
  from ``SHAKE256(b"repro.xof" ‖ len(K) ‖ K ‖ _pack_labels((i,)))``, so
  the client regenerates any single node's share with one hash call and
  without replaying a stream.  :meth:`XofStream.fork_residues` draws many
  nodes at once on numpy arrays, bit-identical to the per-node
  :meth:`XofStream.residues`.
* Keystreams and salts (the baselines, the content index) read
  :class:`SeededStream`, HMAC-SHA256 in counter mode.
* Everything is deterministic given ``(seed, label)``; no global state.

This is an engineering instantiation of the paper's "random sequence
generator"; any cryptographic PRF would do.  docs/architecture.md
("Client share regeneration") gives the derivation as a formula and the
PRF argument for the keyed sponge.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..algebra.vkernels import numpy_or_none

__all__ = ["derive_seed", "SeededStream", "XofStream", "DeterministicPRG"]

_BLOCK_BYTES = 32  # SHA-256 output size

#: Public prefix of every :class:`XofStream` input, ahead of the
#: length-prefixed key; it separates the share XOF from any other keyed
#: SHAKE-256 use of the same key.
_XOF_DOMAIN = b"repro.xof"


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
    :meth:`XofStream.fork`) must use this exact encoding so label paths
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
    """An endless deterministic byte stream (HMAC-SHA256 in counter mode).

    Block ``i`` is ``HMAC-SHA256(seed, i)`` with ``i`` as 8 big-endian
    bytes.  Keystreams and salts read it; client shares come from
    :class:`XofStream`.
    """

    def __init__(self, seed: Union[bytes, str, int]) -> None:
        self._key = _to_bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if len(self._buffer) < n:
            blocks = [self._buffer]
            have = len(self._buffer)
            while have < n:
                blocks.append(hmac.digest(
                    self._key, self._counter.to_bytes(8, "big"), "sha256"))
                self._counter += 1
                have += _BLOCK_BYTES
            self._buffer = b"".join(blocks)
        result, self._buffer = self._buffer[:n], self._buffer[n:]
        return result


def _limb_shape(bound: int) -> Tuple[int, int]:
    """``(limb bytes, shift)`` of draws below ``bound``: big-endian limbs
    of ``ceil(bits / 8)`` bytes keep their top ``bits`` bits."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    n_bytes = (bits + 7) // 8
    return n_bytes, n_bytes * 8 - bits


def _first_limbs(count: int, bound: int) -> int:
    """Limbs the first SHAKE call of a draw asks for.

    The limbs ``count`` accepted values take on average, plus four
    standard deviations, so that a second call is rare without hashing
    much past the need.  Any length gives the same draw.
    """
    accept = bound / (1 << bound.bit_length())
    spread = math.sqrt(count * (1.0 - accept)) / accept
    return math.ceil(count / accept + 4.0 * spread)


class XofStream:
    """SHAKE-256 keyed by a fixed-length secret: one output per label path.

    ``XofStream(K).fork(*labels)`` reads the output of
    ``SHAKE256(_XOF_DOMAIN ‖ len(K) ‖ K ‖ _pack_labels(labels))`` (``len``
    as 4 big-endian bytes, which is ``_pack_labels((K,))``).  The keyed
    sponge state is absorbed once; a fork copies it and absorbs its labels.
    An output of ``n`` bytes is a prefix of every longer one, so a draw
    does not depend on how many bytes each call asks for.
    """

    def __init__(self, key: Union[bytes, str, int]) -> None:
        self._sponge = hashlib.shake_256(_XOF_DOMAIN + _pack_labels((key,)))

    def fork(self, *labels: Union[bytes, str, int]) -> "XofStream":
        """The stream of this one's label path extended by ``labels``."""
        if not labels:
            raise ValueError(
                "fork requires at least one label; an unlabelled fork would "
                "duplicate the parent stream instead of being independent")
        child = object.__new__(XofStream)
        child._sponge = self._sponge.copy()
        child._sponge.update(_pack_labels(labels))
        return child

    def residues(self, count: int, bound: int) -> List[int]:
        """The first ``count`` limbs below ``bound`` of this stream's output.

        The reference draw: one SHAKE call of :func:`_first_limbs` limbs,
        and while the accepted values fall short, a call at twice the
        length whose new limbs are scanned.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        n_bytes, shift = _limb_shape(bound)
        out: List[int] = []
        from_bytes = int.from_bytes
        start, limbs = 0, _first_limbs(count, bound)
        while len(out) < count:
            data = self._sponge.digest(limbs * n_bytes)[start * n_bytes:]
            if n_bytes == 1:
                out.extend(v for b in data if (v := b >> shift) < bound)
            else:
                out.extend(v for i in range(0, len(data), n_bytes)
                           if (v := from_bytes(data[i:i + n_bytes], "big")
                               >> shift) < bound)
            start, limbs = limbs, 2 * limbs
        del out[count:]
        return out

    def fork_residues(self, labels: Sequence[Union[bytes, str, int]],
                      count: int, bound: int):
        """``fork(label).residues(count, bound)`` for many labels at once.

        Returns an ``(len(labels), count)`` int64 ndarray whose row ``i``
        is exactly ``self.fork(labels[i]).residues(count, bound)``.  Every
        row takes one SHAKE call of :func:`_first_limbs` limbs; one
        cumulative-sum mask over the limb matrix keeps each row's first
        ``count`` limbs below ``bound``, and rows left short are hashed
        again at twice the length.  Requires numpy and limbs of at most 4
        bytes (``bound < 2**32``).
        """
        np = numpy_or_none()
        if np is None:
            raise RuntimeError("fork_residues requires numpy")
        if count < 0:
            raise ValueError("count must be non-negative")
        n_bytes, shift = _limb_shape(bound)
        if n_bytes > 4:
            raise ValueError("fork_residues handles limbs of at most 4 bytes")
        out = np.zeros((len(labels), count), dtype=np.int64)
        if not len(labels) or not count:
            return out
        copy = self._sponge.copy
        sponges = []
        for label in labels:
            # `_pack_labels((label,))`, without its per-call loop.
            packed = (label.to_bytes(max(1, (label.bit_length() + 7) // 8), "big")
                      if type(label) is int else _to_bytes(label))
            sponge = copy()
            sponge.update(len(packed).to_bytes(4, "big") + packed)
            sponges.append(sponge)
        rows = np.arange(len(labels))
        limbs = _first_limbs(count, bound)
        while len(rows):
            size = limbs * n_bytes
            data = b"".join([sponges[row].digest(size)
                             for row in rows.tolist()])
            if n_bytes == 3:
                raw = np.frombuffer(data, dtype=np.uint8).reshape(
                    len(rows), limbs, 3).astype(np.uint32)
                values = raw[:, :, 0] << 16 | raw[:, :, 1] << 8 | raw[:, :, 2]
            else:
                values = np.frombuffer(data, dtype=f">u{n_bytes}").reshape(
                    len(rows), limbs)
            values = values >> shift
            accepted = values < bound
            rank = np.cumsum(accepted, axis=1, dtype=np.int32)
            full = rank[:, -1] >= count
            take = accepted & (rank <= count) & full[:, None]
            out[rows[full]] = values[take].reshape(-1, count)
            rows = rows[~full]
            limbs *= 2
        return out


class DeterministicPRG:
    """Keyed pseudo-random generator with per-label independent streams.

    The scheme keys one :class:`DeterministicPRG` with the client's secret
    seed; the share of node ``i`` is drawn from
    ``XofStream(derive("node-share")).fork(i)``, so shares are reproducible
    node by node in any order.
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
