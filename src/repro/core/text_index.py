"""Indexing element *content*: the hash-based extension sketched in §5.

The paper's conclusion: "We can use a hash function to map the data to an
element of Z_p but in that case the mapping function is no longer
invertible.  In this case the data polynomials can be used as an index to
the encrypted data."

This module implements exactly that extension:

* every element's text is tokenised into words; each word is hashed with a
  keyed hash into a non-zero point of the evaluation domain (the hash is
  *not* invertible — by design the stored polynomials cannot be decoded
  back into words, they only serve as an index);
* per element a *content polynomial* ``∏ (x − h(word))`` over the subtree's
  words is built, so the same dead-branch pruning as for tag names applies
  to keyword search;
* the content polynomials are additively shared exactly like the structure
  polynomials and queried with the same protocol;
* the actual element text is stored server-side as ciphertext (stream
  cipher keyed by the client seed), addressable by node id, so confirmed
  matches can be retrieved and decrypted by the client.

Hash collisions are possible (the mapping is not invertible), so keyword
matches are *candidates*; the client filters false positives after
decrypting the retrieved payloads, and the tests measure that the false
positive rate behaves like ``#distinct words / p``.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from typing import Dict, List, Set, Tuple

from ..algebra.quotient import EncodingRing
from ..errors import QueryError
from ..prg import DeterministicPRG, derive_seed
from ..xmltree import XmlDocument
from .query import QueryStats, VerificationMode
from .share_tree import ClientShareGenerator, ServerShareTree, share_tree
from .encoder import PolynomialTree
from .query import LocalServerAdapter, QueryEngine
from .mapping import TagMapping

__all__ = ["tokenize", "KeywordHasher", "EncryptedContentStore",
           "ContentIndexBuilder", "ContentSearchClient", "KeywordSearchResult"]

_WORD_PATTERN = re.compile(r"[A-Za-z0-9]+")
_HASH_LABEL = "content-word-hash"
_PAYLOAD_LABEL = "content-payload"


def tokenize(text: str) -> List[str]:
    """Lower-cased alphanumeric word tokens of a text fragment."""
    return [word.lower() for word in _WORD_PATTERN.findall(text or "")]


class KeywordHasher:
    """Keyed, non-invertible mapping from words to query points.

    Words map into ``{1, …, modulus − 1}``: zero is excluded because the
    factor ``x`` would be indistinguishable from "no word".  The key is part
    of the client's secret, so the server cannot run dictionary attacks on
    the points it sees.
    """

    def __init__(self, seed: bytes, modulus: int) -> None:
        if modulus < 3:
            raise QueryError("the hash range must contain at least two points")
        self.key = derive_seed(seed, _HASH_LABEL)
        self.modulus = modulus

    def point(self, word: str) -> int:
        """Hash a word into a non-zero evaluation point."""
        digest = hmac.new(self.key, word.lower().encode("utf-8"),
                          hashlib.sha256).digest()
        return 1 + int.from_bytes(digest, "big") % (self.modulus - 1)


class EncryptedContentStore:
    """Server-side store of per-node encrypted text payloads."""

    def __init__(self) -> None:
        self._payloads: Dict[int, bytes] = {}

    def put(self, node_id: int, ciphertext: bytes) -> None:
        """Store one node's encrypted payload."""
        self._payloads[node_id] = bytes(ciphertext)

    def get(self, node_id: int) -> bytes:
        """Fetch one node's encrypted payload (empty bytes when absent)."""
        return self._payloads.get(node_id, b"")

    def storage_bits(self) -> int:
        """Total ciphertext volume."""
        return sum(len(blob) for blob in self._payloads.values()) * 8

    def __len__(self) -> int:
        return len(self._payloads)


class ContentIndexBuilder:
    """Client-side construction of the shared content index."""

    def __init__(self, ring: EncodingRing, prg: DeterministicPRG) -> None:
        self.ring = ring
        self.prg = prg.child("content-index")
        # Hash words into the evaluation domain; for F_p rings that is F_p,
        # for Z[x]/(r) we use a fixed public hash range (the evaluation
        # modulus varies per point, so points are reduced at query time).
        modulus = getattr(ring, "p", None) or (1 << 31)
        self.hasher = KeywordHasher(self.prg.seed, modulus)

    def build(self, document: XmlDocument
              ) -> Tuple[ClientShareGenerator, ServerShareTree, EncryptedContentStore]:
        """Build the shared content-polynomial tree and the payload store."""
        elements = document.elements()
        index_of = {id(element): index for index, element in enumerate(elements)}
        # Words of the subtree of each element (descendant-or-self), so that
        # the same top-down pruning as for tag names works for keywords.
        subtree_words: Dict[int, Set[str]] = {}

        def collect_preorder(element):
            words = set(tokenize(element.text))
            for value in element.attributes.values():
                words.update(tokenize(value))
            for child in element.children:
                words |= collect_preorder(child)
            subtree_words[index_of[id(element)]] = words
            return words

        collect_preorder(document.root)

        # Content polynomial per node: product of (x - h(word)) over subtree words.
        tree = PolynomialTree(self.ring)
        for index, element in enumerate(elements):
            polynomial = self.ring.one
            for word in sorted(subtree_words[index]):
                polynomial = self.ring.mul(
                    polynomial, self.ring.from_tag_value(self.hasher.point(word)))
            parent = element.parent
            parent_id = index_of[id(parent)] if parent is not None else None
            tree.add_node(index, parent_id, polynomial, element.depth())

        # Share the content tree and encrypt the raw text payloads.
        generator, server = share_tree(tree, self.prg.child("shares"))
        store = EncryptedContentStore()
        for node in tree.iter_preorder():
            element = elements[node.node_id]
            if element.text:
                store.put(node.node_id,
                          self._encrypt_payload(node.node_id, element.text))
        return generator, server, store

    def _encrypt_payload(self, node_id: int, text: str) -> bytes:
        plaintext = text.encode("utf-8")
        keystream = self.prg.stream(_PAYLOAD_LABEL, node_id).read(len(plaintext))
        return bytes(p ^ k for p, k in zip(plaintext, keystream))

    def decrypt_payload(self, node_id: int, ciphertext: bytes) -> str:
        """Inverse of the payload encryption (XOR stream cipher)."""
        keystream = self.prg.stream(_PAYLOAD_LABEL, node_id).read(len(ciphertext))
        return bytes(c ^ k for c, k in zip(ciphertext, keystream)).decode("utf-8")


class KeywordSearchResult:
    """Result of a keyword search over the content index."""

    __slots__ = ("word", "candidate_nodes", "confirmed_nodes", "false_positives",
                 "stats", "payloads")

    def __init__(self, word: str) -> None:
        self.word = word
        #: Nodes whose content polynomial vanished at the hashed point.
        self.candidate_nodes: List[int] = []
        #: Candidates whose decrypted payload really contains the word.
        self.confirmed_nodes: List[int] = []
        #: Hash-collision candidates discarded after decryption.
        self.false_positives = 0
        self.stats = QueryStats()
        #: Decrypted text of confirmed nodes, keyed by node id.
        self.payloads: Dict[int, str] = {}

    def __repr__(self) -> str:
        return (f"KeywordSearchResult(word={self.word!r}, "
                f"confirmed={self.confirmed_nodes}, "
                f"false_positives={self.false_positives})")


class ContentSearchClient:
    """Keyword search over the shared content index.

    Reuses the §4.3 descent: evaluate shares at the hashed point, prune
    non-zero branches, then fetch and decrypt the payloads of the deepest
    candidates to drop hash collisions.
    """

    def __init__(self, builder: ContentIndexBuilder,
                 generator: ClientShareGenerator,
                 server_tree: ServerShareTree,
                 store: EncryptedContentStore) -> None:
        self.builder = builder
        self.ring = builder.ring
        self.generator = generator
        self.server_tree = server_tree
        self.store = store

    def search(self, word: str) -> KeywordSearchResult:
        """Find the elements whose own text contains ``word``."""
        result = KeywordSearchResult(word)
        point = self.builder.hasher.point(word)
        # A one-off mapping exposing the hashed point as a pseudo-tag lets the
        # generic engine drive the descent unchanged.
        pseudo_mapping = TagMapping({word or "empty": point})
        engine = QueryEngine(self.ring, pseudo_mapping, self.generator,
                             LocalServerAdapter(self.server_tree),
                             VerificationMode.NONE)
        zero_nodes, stats = engine.containment_frontier([word or "empty"])
        result.stats = stats
        result.candidate_nodes = sorted(zero_nodes)

        # Confirm candidates by decrypting their payloads (client side only).
        for node_id in result.candidate_nodes:
            ciphertext = self.store.get(node_id)
            if not ciphertext:
                continue
            text = self.builder.decrypt_payload(node_id, ciphertext)
            if word.lower() in tokenize(text):
                result.confirmed_nodes.append(node_id)
                result.payloads[node_id] = text
            else:
                result.false_positives += 1
        return result
