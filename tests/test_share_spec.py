"""Client shares against the written spec of their derivation.

docs/architecture.md ("The derivation") specifies a client share from the
seed alone, for the marker ``shake256-xof-v3``:

* ``pack(x)`` is ``len(x)`` as 4 big-endian bytes, then ``x`` (an int as
  its shortest big-endian bytes, at least one);
* ``K = HMAC-SHA256(seed, b"repro.derive" ‖ pack(b"node-share"))``;
* node ``i`` reads ``SHAKE256(b"repro.xof" ‖ pack(K) ‖ pack(i))`` as
  big-endian limbs of ``ceil(bits / 8)`` bytes, keeps each limb's top
  ``bits`` bits (``bits`` of the bound) and takes the first values below
  the bound: ``p - 1`` values below ``p`` are the coefficients of an
  ``F_p`` share, ``d`` values below ``2B + 1``, less ``B``, those of a
  ``Z[x]/(r)`` share (``d = deg r``, ``B`` the ring's random bound).

These tests recompute shares from that text with :mod:`hashlib` and
:mod:`hmac` only, without the derivation code, and compare them with a
client restored from its secret state (what ``client.json`` holds):
``share_for`` on every tier, ``share_rows`` in bulk where numpy is
present.
"""

import hashlib
import hmac

import pytest

from repro.algebra import FpQuotientRing, IntQuotientRing, default_int_modulus
from repro.algebra.vkernels import numpy_or_none
from repro.core.mapping import TagMapping
from repro.core.scheme import ClientContext

SEED = bytes(range(32))

#: Labels of one to six bytes.
NODE_IDS = [0, 1, 256, 10 ** 6, 2 ** 40 + 7]


def pack(value):
    if isinstance(value, int):
        value = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return len(value).to_bytes(4, "big") + value


def spec_draw(seed, node_id, count, bound):
    """The first ``count`` values below ``bound`` of node ``node_id``."""
    key = hmac.new(seed, b"repro.derive" + pack(b"node-share"),
                   hashlib.sha256).digest()
    xof = hashlib.shake_256(b"repro.xof" + pack(key) + pack(node_id))
    bits = bound.bit_length()
    width = (bits + 7) // 8
    output = xof.digest((3 * count + 64) * width)   # at least half accepted
    values = [int.from_bytes(output[i:i + width], "big") >> (8 * width - bits)
              for i in range(0, len(output), width)]
    accepted = [value for value in values if value < bound]
    assert len(accepted) >= count
    return accepted[:count]


def restored_generator(ring):
    """The share generator of a client restored from its secret state."""
    state = {"seed": SEED.hex(), "mapping": TagMapping().to_json(),
             "share_derivation": "shake256-xof-v3"}
    return ClientContext.from_secret_state(ring, state).share_generator


def padded(share, width):
    coeffs = list(share.coeffs)
    return coeffs + [0] * (width - len(coeffs))


@pytest.mark.parametrize("p", [53, 251, 1021, 65537])
def test_fp_shares_follow_the_spec(p):
    ring = FpQuotientRing(p)
    node_ids = NODE_IDS if p < 65537 else NODE_IDS[::4]
    expected = [spec_draw(SEED, node_id, p - 1, p) for node_id in node_ids]
    generator = restored_generator(ring)
    assert [padded(generator.share_for(node_id), p - 1)
            for node_id in node_ids] == expected
    if numpy_or_none() is not None:
        rows = restored_generator(ring).share_rows(node_ids)
        assert rows.tolist() == expected


def test_int_ring_share_follows_the_spec():
    ring = IntQuotientRing(default_int_modulus(3))
    bound = ring.coefficient_ring.random_bound
    assert (2 * bound + 1).bit_length() == 34      # 5-byte limbs
    draws = spec_draw(SEED, 9, 3, 2 * bound + 1)
    share = restored_generator(ring).share_for(9)
    assert padded(share, 3) == [draw - bound for draw in draws]


def test_marker_names_this_derivation():
    assert ClientContext.SHARE_DERIVATION == "shake256-xof-v3"
