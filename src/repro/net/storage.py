"""Plain-data forms of encoding rings and server share trees.

A ring travels as a small dict: the client file and the SQLite store's
``meta`` table record the ring their shares live in with
:func:`ring_to_dict`.  A server share tree (ring parameters, public
structure, share polynomials) converts to and from one dict, which copies
a tree without touching its original.  The server file itself is a
:class:`~repro.net.store.SQLiteShareStore`.

The *client's* secrets (seed and tag mapping) are intentionally not part
of these forms; see :meth:`repro.core.ClientContext.secret_state`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing, FpQuotientRing, IntQuotientRing
from ..algebra.rings import ZZ
from ..core.share_tree import ServerShareTree
from ..errors import ProtocolError

__all__ = [
    "ring_to_dict",
    "ring_from_dict",
    "share_tree_to_dict",
    "share_tree_from_dict",
]


def ring_to_dict(ring: EncodingRing) -> Dict[str, Any]:
    """Serialisable description of an encoding ring."""
    if isinstance(ring, FpQuotientRing):
        return {"kind": "fp", "p": ring.p}
    if isinstance(ring, IntQuotientRing):
        return {
            "kind": "int",
            "modulus": [int(c) for c in ring.modulus.coeffs],
            "random_bound": ring.coefficient_ring.random_bound,
        }
    raise ProtocolError(f"cannot serialise ring {ring!r}")


def ring_from_dict(data: Dict[str, Any]) -> EncodingRing:
    """Inverse of :func:`ring_to_dict`."""
    kind = data.get("kind")
    if kind == "fp":
        return FpQuotientRing(int(data["p"]))
    if kind == "int":
        modulus = Polynomial([int(c) for c in data["modulus"]], ZZ)
        return IntQuotientRing(modulus, random_bound=int(data.get("random_bound", 2 ** 32)))
    raise ProtocolError(f"unknown ring kind {kind!r}")


def share_tree_to_dict(tree: ServerShareTree) -> Dict[str, Any]:
    """Serialisable form of a server share tree."""
    return {
        "ring": ring_to_dict(tree.ring),
        "root_id": tree.root_id,
        "nodes": [
            {
                "id": node_id,
                "parent": tree.parent_id(node_id),
                "coefficients": [int(c) for c in tree.shares[node_id].coeffs],
            }
            for node_id in tree.node_ids()
        ],
    }


def share_tree_from_dict(data: Dict[str, Any]) -> ServerShareTree:
    """Inverse of :func:`share_tree_to_dict`."""
    ring = ring_from_dict(data["ring"])
    tree = ServerShareTree(ring)
    for node in data["nodes"]:
        share = ring.from_coefficients(node["coefficients"])
        tree.add_node(int(node["id"]),
                      None if node["parent"] is None else int(node["parent"]),
                      share)
    if tree.root_id != data.get("root_id"):
        raise ProtocolError("inconsistent root id in the stored share tree")
    return tree
