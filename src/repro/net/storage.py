"""Server-side persistence of share trees.

The server's state (ring parameters, public structure, share polynomials)
is plain data; this module serialises it to a JSON document so that the
server can be restarted, copied or inspected — and so that the storage
figures of §5 can also be reported as concrete on-disk bytes.

The *client's* secrets (seed and tag mapping) are intentionally not part
of this format; see :meth:`repro.core.ClientContext.secret_state`.
"""

from __future__ import annotations

import json
import os
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
    "save_share_tree",
    "load_share_tree",
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


def save_share_tree(tree: ServerShareTree, path: str) -> int:
    """Write the share tree as JSON; returns the file size in bytes.

    The write is atomic: the payload goes to a temporary file in the same
    directory which is fsynced and then :func:`os.replace`-d over ``path``,
    so a server crash mid-save can never leave a truncated store behind —
    readers see either the old complete file or the new complete file.
    """
    payload = json.dumps(share_tree_to_dict(tree), separators=(",", ":"))
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = os.path.join(directory,
                             f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    return os.path.getsize(path)


def load_share_tree(path: str) -> ServerShareTree:
    """Load a share tree previously written by :func:`save_share_tree`.

    Empty, truncated or otherwise undecodable files are rejected with a
    :class:`~repro.errors.ProtocolError` that names the path and what was
    sniffed, instead of an opaque ``JSONDecodeError`` from deep inside the
    decoder.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if not raw:
        raise ProtocolError(f"share tree file {path!r} is empty")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"share tree file {path!r} is not valid JSON "
            f"(starts with {raw[:16]!r}): {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            f"share tree file {path!r} holds a JSON {type(data).__name__}, "
            "not the expected object")
    return share_tree_from_dict(data)
