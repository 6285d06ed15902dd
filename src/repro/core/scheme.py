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
from typing import Dict, List, Optional, Tuple, Union

from ..algebra.primes import smallest_prime_at_least
from ..algebra.quotient import (
    EncodingRing,
    FpQuotientRing,
    IntQuotientRing,
    default_int_modulus,
)
from ..errors import MappingCapacityError, QueryError, UpdateConflictError
from ..prg import DeterministicPRG
from ..xmltree import XmlDocument
from ..xpath import LocationPath, TagQueryPlan
from .advanced import AdvancedQueryExecutor, AdvancedQueryResult, AdvancedStrategy
from .encoder import PolynomialTree, encode_element
from .mapping import TagMapping
from .query import (
    LocalServerAdapter,
    LookupOutcome,
    QueryEngine,
    QueryStats,
    ServerInterface,
    VerificationMode,
)
from .share_tree import (ClientShareGenerator, ServerShareTree, ShareStore,
                         share_tree)

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
    def adapt(server: Union[ServerInterface, ShareStore]) -> ServerInterface:
        """Accept a server interface or a share store.

        A :class:`~repro.core.share_tree.ShareStore` (the in-memory
        ``ServerShareTree`` or a durable store) is wrapped in a
        :class:`LocalServerAdapter`.
        """
        if isinstance(server, ServerInterface):
            return server
        return LocalServerAdapter(server)

    # -- queries ------------------------------------------------------------------
    #: Attempts of one lookup or XPath query.  A query spans several
    #: rounds; when another writer removes a node between two of them the
    #: server refuses the round that names it with a conflict, and the
    #: query restarts from the root with a fresh engine.
    QUERY_ATTEMPTS = 4

    def _restarting(self, run):
        for attempt in range(1, self.QUERY_ATTEMPTS + 1):
            try:
                return run()
            except UpdateConflictError:
                if attempt == self.QUERY_ATTEMPTS:
                    raise

    def lookup(self, server: Union[ServerInterface, ShareStore],
               tag: str,
               verification: Optional[VerificationMode] = None) -> LookupOutcome:
        """The basic element lookup ``//tag``."""
        adapter = self.adapt(server)
        return self._restarting(
            lambda: self.engine(adapter, verification).lookup(tag))

    def xpath(self, server: Union[ServerInterface, ShareStore],
              query: Union[str, LocationPath, TagQueryPlan],
              strategy: AdvancedStrategy = AdvancedStrategy.SINGLE_PASS,
              verification: Optional[VerificationMode] = None) -> AdvancedQueryResult:
        """Evaluate an XPath-subset query (advanced querying, §4.3)."""
        adapter = self.adapt(server)
        return self._restarting(
            lambda: AdvancedQueryExecutor(self.engine(adapter, verification))
            .execute(query, strategy))

    # -- decoding results -------------------------------------------------------------
    def tag_of(self, server: Union[ServerInterface, ShareStore],
               node_id: int) -> str:
        """Recover the tag name of one node by Theorem 1/2 reconstruction.

        Raises :class:`~repro.errors.VerificationError` when the server's
        polynomials are inconsistent with the encoding invariant.
        """
        engine = self.engine(self.adapt(server))
        return self.mapping.tag(engine.tag_values([node_id], QueryStats())[node_id])

    def tag_path_of(self, server: Union[ServerInterface, ShareStore],
                    node_id: int) -> str:
        """Slash-separated tag path of a node, recovered from the shares.

        Demonstrates that query answers can be turned back into meaningful
        locations without the client storing the document.  The path's
        tags are recovered together, through one engine: one closure fetch
        and one batched recovery.
        """
        adapter = self.adapt(server)
        engine = self.engine(adapter)
        stats = QueryStats()
        path = self._path_to_root(adapter, engine, node_id, stats)
        values = engine.tag_values(path, stats)
        return "/".join(self.mapping.tag(values[current])
                        for current in reversed(path))

    @staticmethod
    def _path_to_root(server: ServerInterface, engine: QueryEngine,
                      node_id: int, stats: QueryStats) -> List[int]:
        """``node_id`` and its ancestors, up to the root.

        A local store names each parent.  Any other server's structure is
        walked from the root one level per round, up to the level that
        holds ``node_id``.
        """
        if isinstance(server, LocalServerAdapter):
            parent_of = server.share_tree.parent_id
        else:
            root = server.root_id()
            parents: Dict[int, Optional[int]] = {root: None}
            level = [root]
            while node_id not in parents:
                if not level:
                    raise QueryError(f"unknown node id {node_id}")
                children = engine.children_of(level, stats)
                next_level: List[int] = []
                for parent_id in level:
                    for child in children[parent_id]:
                        if child not in parents:
                            parents[child] = parent_id
                            next_level.append(child)
                level = next_level
            parent_of = parents.get
        path: List[int] = []
        visited = set()
        current: Optional[int] = node_id
        while current is not None:
            if current in visited:
                raise QueryError("cycle detected in the server's structure data")
            visited.add(current)
            path.append(current)
            current = parent_of(current)
        return path

    # -- persistence ---------------------------------------------------------------------
    #: Identifies how client shares are derived from the seed.  Server shares
    #: are ``polynomial - client_share``, so a client state replayed against a
    #: server tree written under a *different* derivation would silently
    #: reconstruct garbage; the marker turns that into a loud error.
    SHARE_DERIVATION = "shake256-xof-v3"

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
    # One walk collects the tags the ring, the mapping and the encoder need.
    tags = document.distinct_tags()
    ring = ring or choose_fp_ring(len(tags), strict=strict)
    if mapping is None:
        if isinstance(ring, FpQuotientRing):
            max_value = ring.p - 2 if strict else ring.p - 1
        else:
            max_value = None
        mapping = TagMapping.for_tags(tags, max_value=max_value,
                                      rng=mapping_rng, strict=strict)
    else:
        mapping.extend(tags)
    prg = DeterministicPRG(seed) if seed is not None else DeterministicPRG.generate()
    tree = encode_element(document.root, mapping, ring)
    client = ClientContext(ring, mapping, prg, verification)
    # Split with the client's own generator so its share cache is already
    # warm when the first queries arrive.
    client_generator, server_tree = share_tree(tree, prg,
                                               generator=client.share_generator)
    return client, server_tree, tree
