"""High-level facade: outsource an XML document, then search it.

This module glues the pieces of the scheme together into the API most
applications use:

* :func:`choose_fp_ring` / :func:`choose_int_ring` pick an encoding ring
  that fits a document (§4.1);
* :func:`outsource_document` encodes, splits and hands back a
  :class:`ClientContext` (the client's secret state: seed + tag mapping)
  and a :class:`~repro.core.share_tree.ServerShareTree` (everything the
  untrusted server stores);
* :class:`ClientContext` runs element lookups and XPath queries against
  any :class:`~repro.core.query.ServerInterface` — in-process for tests
  and examples, or remote via :mod:`repro.net` when bandwidth matters.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algebra.poly import Polynomial
from ..algebra.primes import smallest_prime_at_least
from ..algebra.quotient import (
    EncodingRing,
    FpQuotientRing,
    IntQuotientRing,
    default_int_modulus,
)
from ..errors import MappingCapacityError, QueryError, TagRecoveryError
from ..prg import DeterministicPRG
from ..xmltree import XmlDocument
from ..xpath import LocationPath, TagQueryPlan
from .advanced import AdvancedQueryExecutor, AdvancedQueryResult, AdvancedStrategy
from .encoder import PolynomialTree, encode_document
from .mapping import TagMapping
from .query import (
    LocalServerAdapter,
    LookupOutcome,
    QueryEngine,
    QueryStats,
    ServerInterface,
    VerificationMode,
)
from .share_tree import ClientShareGenerator, ServerShareTree, share_tree

__all__ = [
    "choose_fp_ring",
    "choose_int_ring",
    "ClientContext",
    "outsource_document",
]


def choose_fp_ring(document_or_tag_count: Union[XmlDocument, int],
                   strict: bool = True, minimum_prime: int = 5) -> FpQuotientRing:
    """Choose a prime ``p`` large enough for the document's tag vocabulary.

    With ``strict=True`` the mapping may use values ``1..p-2`` (avoiding the
    zero-divisor value ``p-1`` that the paper warns about), so ``p`` must be
    at least ``tag_count + 2``; otherwise ``tag_count + 1`` suffices.
    """
    if isinstance(document_or_tag_count, XmlDocument):
        tag_count = len(document_or_tag_count.distinct_tags())
    else:
        tag_count = int(document_or_tag_count)
    if tag_count < 1:
        raise MappingCapacityError("the document has no tags to encode")
    needed = tag_count + (2 if strict else 1)
    return FpQuotientRing(smallest_prime_at_least(max(needed, minimum_prime)))


def choose_int_ring(degree: int = 2, random_bound: int = 2 ** 32) -> IntQuotientRing:
    """The ``Z[x]/(r(x))`` ring with the default irreducible modulus."""
    return IntQuotientRing(default_int_modulus(degree), random_bound=random_bound)


class ClientContext:
    """The client's secret state plus the query-side API of the scheme."""

    def __init__(self, ring: EncodingRing, mapping: TagMapping,
                 prg: DeterministicPRG,
                 verification: VerificationMode = VerificationMode.FULL,
                 share_cache_size: int = 1024) -> None:
        self.ring = ring
        self.mapping = mapping
        self.prg = prg
        self.verification = verification
        # The generator (and its share LRU) is shared by every engine this
        # context creates, so repeated queries reuse derived shares.
        self._share_generator = ClientShareGenerator(ring, prg,
                                                     cache_size=share_cache_size)

    # -- plumbing ---------------------------------------------------------------
    @property
    def share_generator(self) -> ClientShareGenerator:
        """The seed-backed generator of the client's share polynomials."""
        return self._share_generator

    def engine(self, server: ServerInterface,
               verification: Optional[VerificationMode] = None) -> QueryEngine:
        """A query engine bound to a server interface."""
        return QueryEngine(self.ring, self.mapping, self._share_generator, server,
                           verification or self.verification)

    @staticmethod
    def adapt(server: Union[ServerInterface, ServerShareTree]) -> ServerInterface:
        """Accept a server interface, a raw share tree, or a share store.

        Anything that is not already a :class:`ServerInterface` is wrapped
        in a :class:`LocalServerAdapter` — the adapter only needs the
        ``ServerShareTree`` read API, which every
        :class:`repro.net.store.ShareStore` backend also provides.
        """
        if isinstance(server, ServerInterface):
            return server
        return LocalServerAdapter(server)

    # -- queries ------------------------------------------------------------------
    def lookup(self, server: Union[ServerInterface, ServerShareTree],
               tag: str,
               verification: Optional[VerificationMode] = None) -> LookupOutcome:
        """The basic element lookup ``//tag``."""
        engine = self.engine(self.adapt(server), verification)
        return engine.lookup(tag)

    def xpath(self, server: Union[ServerInterface, ServerShareTree],
              query: Union[str, LocationPath, TagQueryPlan],
              strategy: AdvancedStrategy = AdvancedStrategy.SINGLE_PASS,
              verification: Optional[VerificationMode] = None) -> AdvancedQueryResult:
        """Evaluate an XPath-subset query (advanced querying, §4.3)."""
        engine = self.engine(self.adapt(server), verification)
        return AdvancedQueryExecutor(engine).execute(query, strategy)

    # -- decoding results -------------------------------------------------------------
    def tag_of(self, server: Union[ServerInterface, ServerShareTree],
               node_id: int) -> str:
        """Recover the tag name of one node by Theorem 1/2 reconstruction."""
        adapter = self.adapt(server)
        engine = self.engine(adapter)
        children = engine.children_of([node_id], QueryStats())[node_id]
        needed = [node_id] + list(children)
        value = engine._recover_tags([node_id], {node_id: children}, needed,
                                     adapter.fetch_polynomial_rows(needed))[0]
        if isinstance(value, TagRecoveryError):
            raise value
        return self.mapping.tag(value)

    def tag_path_of(self, server: Union[ServerInterface, ServerShareTree],
                    node_id: int) -> str:
        """Slash-separated tag path of a node, recovered from the shares.

        Demonstrates that query answers can be turned back into meaningful
        locations without the client storing the document.
        """
        adapter = self.adapt(server)
        path_tags: List[str] = []
        current: Optional[int] = node_id
        visited = set()
        while current is not None:
            if current in visited:
                raise QueryError("cycle detected in the server's structure data")
            visited.add(current)
            path_tags.append(self.tag_of(adapter, current))
            current = self._parent_of(adapter, current)
        return "/".join(reversed(path_tags))

    @staticmethod
    def _parent_of(server: ServerInterface, node_id: int) -> Optional[int]:
        if isinstance(server, LocalServerAdapter):
            return server.share_tree.parent_id(node_id)
        # Generic fallback: walk the structure from the root.
        parent: Dict[int, Optional[int]] = {server.root_id(): None}
        frontier = [server.root_id()]
        while frontier:
            children_map = server.children_of(frontier)
            next_frontier: List[int] = []
            for parent_id, children in children_map.items():
                for child in children:
                    parent[child] = parent_id
                    next_frontier.append(child)
            frontier = next_frontier
        if node_id not in parent:
            raise QueryError(f"unknown node id {node_id}")
        return parent[node_id]

    # -- persistence ---------------------------------------------------------------------
    #: Identifies how client shares are derived from the seed.  Server shares
    #: are ``polynomial - client_share``, so a client state replayed against a
    #: server tree written under a *different* derivation would silently
    #: reconstruct garbage; the marker turns that into a loud error.
    SHARE_DERIVATION = "hmac-stream-v2"

    def secret_state(self) -> Dict[str, str]:
        """The client's durable secrets: the seed and the tag mapping."""
        return {
            "seed": self.prg.seed.hex(),
            "mapping": self.mapping.to_json(),
            "share_derivation": self.SHARE_DERIVATION,
        }

    @classmethod
    def from_secret_state(cls, ring: EncodingRing, state: Dict[str, str],
                          verification: VerificationMode = VerificationMode.FULL
                          ) -> "ClientContext":
        """Rebuild a client context from :meth:`secret_state` output."""
        derivation = state.get("share_derivation", "python-random-v1")
        if derivation != cls.SHARE_DERIVATION:
            raise QueryError(
                f"client state uses share derivation {derivation!r} but this "
                f"version regenerates shares with {cls.SHARE_DERIVATION!r}; "
                "lookups would silently return wrong results — re-outsource "
                "the document to refresh both files")
        prg = DeterministicPRG(bytes.fromhex(state["seed"]))
        mapping = TagMapping.from_json(state["mapping"])
        return cls(ring, mapping, prg, verification)


def outsource_document(document: XmlDocument,
                       ring: Optional[EncodingRing] = None,
                       mapping: Optional[TagMapping] = None,
                       seed: Optional[Union[bytes, str, int]] = None,
                       mapping_rng: Optional[random.Random] = None,
                       strict: bool = True,
                       verification: VerificationMode = VerificationMode.FULL,
                       ) -> Tuple[ClientContext, ServerShareTree, PolynomialTree]:
    """Encode, split and return ``(client, server_tree, plaintext_polynomial_tree)``.

    The polynomial tree is returned for inspection and testing; a real
    deployment would discard it (the client keeps only the seed and mapping,
    the server keeps only its share tree).
    """
    ring = ring or choose_fp_ring(document, strict=strict)
    if mapping is None:
        if isinstance(ring, FpQuotientRing):
            max_value = ring.p - 2 if strict else ring.p - 1
        else:
            max_value = None
        mapping = TagMapping.for_tags(document.distinct_tags(), max_value=max_value,
                                      rng=mapping_rng, strict=strict)
    else:
        mapping.extend(document.distinct_tags())
    prg = DeterministicPRG(seed) if seed is not None else DeterministicPRG.generate()
    tree = encode_document(document, mapping, ring)
    client = ClientContext(ring, mapping, prg, verification)
    # Split with the client's own generator so its share cache is already
    # warm when the first queries arrive.
    client_generator, server_tree = share_tree(tree, prg,
                                               generator=client.share_generator)
    return client, server_tree, tree
