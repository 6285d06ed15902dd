"""The interactive search protocol over shared polynomial trees (§4.3).

The client and the server evaluate a query together:

1. the client maps the queried tag name to its secret point ``x = map(tag)``
   and sends the point to the server;
2. the server evaluates *its* share polynomial of every live node at the
   point and returns the values;
3. the client evaluates its own (regenerated) shares, adds the two values
   per node, and interprets the sum: zero means the subtree contains the
   tag, non-zero marks a dead branch which the client tells the server to
   prune;
4. zero nodes that have no zero child are definite answers; other zero
   nodes are *candidates* that the client confirms by reconstructing the
   node's tag value from the node polynomial and its children
   (Theorem 1/2, eq. (1)–(3)) — this is also how an untrusted server's
   answers are verified.

The module is network-agnostic: the client-side engine talks to a
:class:`ServerInterface`.  :class:`LocalServerAdapter` runs the server
in-process (used by tests and the plain API), while
:class:`repro.net.client.RemoteServerAdapter` sends the same requests over
an instrumented channel to measure bandwidth and round trips.
"""

from __future__ import annotations

import abc
import enum
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing, FpQuotientRing
from ..algebra.vkernels import numpy_or_none
from ..errors import QueryError, TagRecoveryError, VerificationError
from .mapping import TagMapping
from .share_tree import ClientShareGenerator, CoefficientRows, ServerShareTree

__all__ = [
    "VerificationMode",
    "QueryStats",
    "FrontierResult",
    "CoefficientRows",
    "ServerInterface",
    "LocalServerAdapter",
    "LookupOutcome",
    "QueryEngine",
]


class VerificationMode(enum.Enum):
    """How much the client checks the server's answers (§4.3, last paragraph)."""

    #: Untrusted server: fetch full share polynomials of every candidate and
    #: its children, solve for the tag value and check all coefficient
    #: equations.  Results are exact and verified.
    FULL = "full"

    #: Trusted server: only constant coefficients are transmitted and only the
    #: constant-term equation is checked.  Cheaper in bandwidth, weaker in
    #: assurance: a candidate whose check fails is reported as an unverified
    #: candidate, and a candidate whose subtree has at least
    #: ``ring.degree_bound`` nodes can pass the check without carrying the
    #: tag (its reduced product wraps, so the equation can hold by
    #: coincidence) and is then reported as a match.  No true match is ever
    #: missing from ``all_answers()``.
    CONSTANT_ONLY = "constant-only"

    #: No verification traffic at all: structural evidence only.  In the
    #: ``F_p`` ring deepest-zero nodes are still exact; other zero nodes are
    #: reported as unverified candidates.
    NONE = "none"


class QueryStats:
    """Work and communication accounting for one query execution."""

    __slots__ = ("nodes_evaluated", "evaluations", "nodes_pruned", "round_trips",
                 "candidates_verified", "polynomials_fetched", "constants_fetched",
                 "points_sent")

    def __init__(self) -> None:
        self.nodes_evaluated = 0       # distinct nodes whose share was evaluated
        self.evaluations = 0           # (node, point) evaluation pairs
        self.nodes_pruned = 0          # nodes reported as dead branches
        self.round_trips = 0           # request/response exchanges with the server
        self.candidates_verified = 0   # Theorem-1/2 tag recoveries run
        self.polynomials_fetched = 0   # server share rows fetched
        self.constants_fetched = 0     # constant coefficients transferred
        self.points_sent = 0           # query points revealed to the server

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another stats record into this one (returns self)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        """Dictionary form for tabular reporting."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"QueryStats({fields})"


class FrontierResult:
    """What one descent round returns, plus its transport cost."""

    __slots__ = ("evaluations", "children", "round_trips")

    def __init__(self, evaluations: Dict[int, Dict[int, int]],
                 children: Dict[int, List[int]], round_trips: int) -> None:
        #: ``point -> node_id -> server share evaluation``.
        self.evaluations = evaluations
        #: Child lists of every frontier node (empty when not requested).
        self.children = children
        #: Request/response exchanges this round actually cost.
        self.round_trips = round_trips


class ServerInterface(abc.ABC):
    """The requests a client may send to the (untrusted) search server."""

    #: True for transports that answer a whole frontier round natively in
    #: one exchange (the wire protocol).  The engine then evaluates the
    #: full frontier at every point up front — extra share evaluations for
    #: nodes that die at the first point, in exchange for O(depth) round
    #: trips.  The in-process reference (:class:`LocalServerAdapter`)
    #: leaves this False and gets §4.3's lazy per-point descent, which
    #: evaluates the fewest nodes.
    batched_rounds = False

    @abc.abstractmethod
    def root_id(self) -> int:
        """Identifier of the root node."""

    @abc.abstractmethod
    def node_count(self) -> int:
        """Total number of nodes stored (public)."""

    @abc.abstractmethod
    def children_of(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Public child lists for a batch of nodes."""

    @abc.abstractmethod
    def evaluate(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Server-share evaluations at ``point`` for a batch of nodes."""

    @abc.abstractmethod
    def fetch_polynomials(self, node_ids: Sequence[int]) -> Dict[int, Polynomial]:
        """Full server-share polynomials (used by FULL verification)."""

    @abc.abstractmethod
    def fetch_constants(self, node_ids: Sequence[int]) -> Dict[int, int]:
        """Constant coefficients of server shares (CONSTANT_ONLY verification)."""

    def fetch_polynomial_rows(self, node_ids: Sequence[int]
                              ) -> Mapping[int, Sequence[int]]:
        """Server-share coefficient rows, as received (untrusted).

        What FULL verification consumes: rows may be unreduced, and the
        verifier normalises them.  The base implementation takes the
        coefficients of :meth:`fetch_polynomials`; the wire adapter
        returns the decoded rows without building a polynomial per node,
        as one :class:`CoefficientRows` block.
        """
        return {node_id: poly.coeffs
                for node_id, poly in self.fetch_polynomials(node_ids).items()}

    @abc.abstractmethod
    def prune(self, node_ids: Sequence[int]) -> None:
        """Inform the server that these subtrees are dead for the current query."""

    # -- batched protocol ---------------------------------------------------------------
    def frontier_round(self, node_ids: Sequence[int], points: Sequence[int],
                       prune: Sequence[int] = (), include_children: bool = True,
                       lookahead: int = 0) -> FrontierResult:
        """One whole descent round: prune notice, evaluations, child lists.

        Only servers with :attr:`batched_rounds` answer it, in one exchange
        that may cover ``lookahead`` further levels; the engine runs §4.3's
        lazy per-point descent against every other server.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not answer batched frontier rounds")

    def verification_bundle(self, node_ids: Sequence[int],
                            constants_only: bool = False
                            ) -> Tuple[Dict[int, List[int]], Dict[int, object], int]:
        """Child lists plus share data for ``node_ids`` *and their children*.

        Verification (Theorem 1/2) always needs a candidate's children, so
        the wire adapter answers both in one exchange; the base
        implementation composes two per-kind requests.  Returns
        ``(children, data, round_trips)`` where ``data`` maps every node in
        the closure to its share's coefficient row, as
        :meth:`fetch_polynomial_rows` returns it (or to its constant
        coefficient when ``constants_only``).
        """
        children = self.children_of(node_ids)
        needed = sorted(set(node_ids) | {
            child for node_id in node_ids for child in children[node_id]})
        if constants_only:
            data: Dict[int, object] = dict(self.fetch_constants(needed))
        else:
            data = dict(self.fetch_polynomial_rows(needed))
        return children, data, 2

    def flush_prunes(self) -> int:
        """Deliver any buffered prune notices; returns round trips spent.

        Transports that piggyback prune notices on later requests override
        this; for everything else pruning is immediate and there is nothing
        to flush.
        """
        return 0


class LocalServerAdapter(ServerInterface):
    """Runs the server role in-process against a :class:`ServerShareTree`.

    Also keeps the server-visible trace (queried points, pruned nodes) so the
    leakage analysis (:mod:`repro.analysis.leakage`) can audit exactly what an
    honest-but-curious server observes.
    """

    def __init__(self, share_tree: ServerShareTree) -> None:
        self.share_tree = share_tree
        self.observed_points: List[int] = []
        self.observed_prunes: List[int] = []
        self.evaluation_requests = 0

    def root_id(self) -> int:
        if self.share_tree.root_id is None:
            raise QueryError("the server share tree is empty")
        return self.share_tree.root_id

    def node_count(self) -> int:
        return self.share_tree.node_count()

    def children_of(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        return {node_id: self.share_tree.child_ids(node_id) for node_id in node_ids}

    def evaluate(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        self.observed_points.append(point)
        self.evaluation_requests += len(node_ids)
        return self.share_tree.evaluate_many(node_ids, point)

    def fetch_polynomials(self, node_ids: Sequence[int]) -> Dict[int, Polynomial]:
        return {node_id: self.share_tree.share_of(node_id) for node_id in node_ids}

    def fetch_constants(self, node_ids: Sequence[int]) -> Dict[int, int]:
        return {node_id: self.share_tree.share_of(node_id).constant_term
                for node_id in node_ids}

    def prune(self, node_ids: Sequence[int]) -> None:
        self.observed_prunes.extend(node_ids)


class LookupOutcome:
    """Result of one element lookup ``//tag``."""

    __slots__ = ("tag", "point", "matches", "unverified_candidates", "zero_nodes",
                 "pruned_nodes", "stats")

    def __init__(self, tag: str, point: int) -> None:
        self.tag = tag
        self.point = point
        #: Node ids confirmed to carry the queried tag.
        self.matches: List[int] = []
        #: Zero-sum nodes that could not be confirmed (only in relaxed modes).
        self.unverified_candidates: List[int] = []
        #: Every node whose sum evaluated to zero (subtree contains the tag).
        self.zero_nodes: List[int] = []
        #: Nodes reported to the server as dead branches.
        self.pruned_nodes: List[int] = []
        self.stats = QueryStats()

    def all_answers(self) -> List[int]:
        """Matches plus unverified candidates (what a trusting client would use)."""
        return sorted(set(self.matches) | set(self.unverified_candidates))

    def __repr__(self) -> str:
        return (f"LookupOutcome(tag={self.tag!r}, matches={self.matches}, "
                f"candidates={self.unverified_candidates})")


class QueryEngine:
    """Client-side query engine implementing the §4.3 protocol.

    The engine does each piece of a query's work once:

    * a descent enters each node into its frontier at most once, so when
      its start nodes nest (a descendant step from nested context nodes)
      the subtrees below the inner ones are walked, evaluated and pruned
      once;
    * over a batched transport a memo holds the server evaluations
      (``point -> node -> value``) and the child lists the query has
      received.  A descent level or a child-axis filter whose round would
      return nothing the memo lacks sends no round; when a round is
      needed it is the whole-frontier round, unchanged;
    * FULL verification keeps the server share rows the query has
      received and the tag value of every node it has recovered
      (:meth:`tag_values`): a node is recovered once per query, and a
      share row crosses the wire once per query, unless a closure whose
      child lists the query lacks brings it again in its one exchange.

    The memo belongs to one query: it starts empty at every
    :meth:`lookup` and every advanced query (:meth:`begin_query`).  Kept
    longer, it would answer a later query from values, child lists, rows
    and tags that a rename, an insert or another writer has since
    changed.
    """

    #: Tree levels the server evaluates speculatively below each batched
    #: frontier exchange: one level halves the descent's round trips, at
    #: the price of evaluating children of nodes that turn out dead.
    FRONTIER_LOOKAHEAD = 1

    def __init__(self, ring: EncodingRing, mapping: TagMapping,
                 client_shares: ClientShareGenerator, server: ServerInterface,
                 verification: VerificationMode = VerificationMode.FULL) -> None:
        self.ring = ring
        self.mapping = mapping
        self.client_shares = client_shares
        self.server = server
        self.verification = verification
        # The query's memo: the child lists it has received; over a
        # batched transport, the server evaluations, ``point -> node_id ->
        # value``; the server share rows, ``node_id -> the block that
        # holds its row`` as received; and the recovered tag values.
        self._children_cache: Dict[int, List[int]] = {}
        self._server_values: Dict[int, Dict[int, int]] = {}
        self._row_blocks: Dict[int, Mapping[int, Sequence[int]]] = {}
        self._tags: Dict[int, int] = {}

    # -- public entry points ----------------------------------------------------------
    def begin_query(self) -> None:
        """Forget what earlier queries received and recovered.

        :meth:`lookup` and :class:`~repro.core.advanced.AdvancedQueryExecutor`
        call it when a query starts; a caller composing the primitives
        below into queries of its own calls it between them.
        """
        self._children_cache.clear()
        self._server_values.clear()
        self._row_blocks.clear()
        self._tags.clear()

    def lookup(self, tag: str) -> LookupOutcome:
        """Evaluate the element lookup ``//tag`` (§4.3 "Element Lookup")."""
        self.begin_query()
        point = self.mapping.value(tag)
        outcome = LookupOutcome(tag, point)
        stats = outcome.stats
        stats.points_sent += 1

        zero_nodes, pruned = self._descend([point], stats)
        outcome.zero_nodes = sorted(zero_nodes)
        outcome.pruned_nodes = sorted(pruned)

        self._classify_candidates(outcome, point, stats)
        stats.round_trips += self.server.flush_prunes()
        return outcome

    def containment_frontier(self, tags: Sequence[str],
                             start_nodes: Optional[Sequence[int]] = None,
                             stats: Optional[QueryStats] = None) -> Tuple[Set[int], QueryStats]:
        """Nodes (from ``start_nodes`` downwards) whose subtree contains *all* ``tags``.

        This is the primitive behind the paper's advanced querying: a single
        descent prunes on every queried tag at once.
        """
        stats = stats if stats is not None else QueryStats()
        points = [self.mapping.value(tag) for tag in tags]
        stats.points_sent += len(set(points))
        zero_nodes, _ = self._descend(points, stats, start_nodes=start_nodes)
        return zero_nodes, stats

    def filter_containing(self, node_ids: Sequence[int], tags: Sequence[str],
                          stats: QueryStats) -> List[int]:
        """Subset of ``node_ids`` whose subtree contains *all* ``tags``.

        A single evaluation round per tag (or, over a batched transport, one
        exchange for *all* tags), no descent — used by the advanced query
        executor for child-axis steps.  Over a batched transport the round
        is skipped when the query's memo already holds every node's value
        at every point, as it does for the children of context nodes that
        an earlier descendant step descended through.
        """
        alive = list(node_ids)
        if self.server.batched_rounds and alive and tags:
            points = [self.mapping.value(tag) for tag in tags]
            stats.points_sent += len(set(points))
            if not self._received(alive, points, children=False):
                self._round(alive, points, stats, include_children=False)
            alive = [node_id for node_id, zero
                     in zip(alive, self._zero_at_all(alive, points)) if zero]
            stats.nodes_evaluated += len(set(node_ids))
            return alive
        for tag in tags:
            if not alive:
                break
            point = self.mapping.value(tag)
            stats.points_sent += 1
            sums = self._sum_evaluations(alive, point, stats)
            alive = [node_id for node_id in alive
                     if self.ring.evaluation_is_zero(sums[node_id], point)]
        stats.nodes_evaluated += len(set(node_ids))
        return alive

    def confirm_tag_nodes(self, node_ids: Sequence[int], tag: str,
                          stats: QueryStats) -> List[int]:
        """Which of ``node_ids`` actually carry ``tag`` (not just a descendant).

        Uses full Theorem-1/2 reconstruction, i.e. the untrusted-server
        verification path; the advanced query strategies rely on it to anchor
        each location step.
        """
        if not node_ids:
            return []
        point = self.mapping.value(tag)
        confirmed, _ = self._verify_full(sorted(set(node_ids)), point, stats)
        return confirmed

    def children_of(self, node_ids: Sequence[int], stats: QueryStats) -> Dict[int, List[int]]:
        """Public child lists (cached; counts a round trip on cache misses)."""
        return self._children(node_ids, stats)

    def tag_values(self, node_ids: Sequence[int],
                   stats: QueryStats) -> Dict[int, int]:
        """The tag value of each of ``node_ids``, by Theorem-1/2 recovery.

        A node this query has already recovered is answered from its
        memo.  The others are recovered together from the share rows of
        their closure (each node and its children, :meth:`_closure_rows`).
        Raises :class:`~repro.errors.VerificationError` when the server's
        rows are inconsistent with the encoding invariant.
        """
        fresh = [node_id for node_id in dict.fromkeys(node_ids)
                 if node_id not in self._tags]
        if fresh:
            children_map, needed, rows = self._closure_rows(fresh, stats)
            values = self._recover_tags(fresh, children_map, needed, rows)
            for node_id, value in zip(fresh, values):
                stats.candidates_verified += 1
                if isinstance(value, TagRecoveryError):
                    raise VerificationError(
                        f"node {node_id}: the server's polynomials are "
                        "inconsistent with the encoding invariant") from value
                self._tags[node_id] = value
        return {node_id: self._tags[node_id] for node_id in node_ids}

    # -- protocol internals --------------------------------------------------------------
    def _children(self, node_ids: Sequence[int], stats: QueryStats) -> Dict[int, List[int]]:
        missing = [node_id for node_id in node_ids if node_id not in self._children_cache]
        if missing:
            fetched = self.server.children_of(missing)
            self._children_cache.update(fetched)
            stats.round_trips += 1
        return {node_id: self._children_cache[node_id] for node_id in node_ids}

    def _sum_evaluations(self, node_ids: Sequence[int], point: int,
                         stats: QueryStats) -> Dict[int, int]:
        """Server round trip + batched local share evaluation + per-node sums."""
        if not node_ids:
            return {}
        server_values = self.server.evaluate(node_ids, point)
        stats.round_trips += 1
        stats.evaluations += len(node_ids)
        client_values = self.client_shares.evaluate_points(node_ids, [point])
        modulus = self.ring.evaluation_modulus(point)
        sums: Dict[int, int] = {}
        for node_id, client_value in zip(node_ids, client_values[point]):
            total = client_value + server_values[node_id]
            sums[node_id] = total if modulus is None else total % modulus
        return sums

    def _descend(self, points: Sequence[int], stats: QueryStats,
                 start_nodes: Optional[Sequence[int]] = None
                 ) -> Tuple[Set[int], Set[int]]:
        """Breadth-first descent pruning on *all* ``points`` simultaneously.

        Each level costs at most one :meth:`ServerInterface.frontier_round`:
        the whole frontier is evaluated at every query point and its child
        lists are fetched speculatively in the same exchange (children of
        nodes that turn out dead cost bytes but never an extra round trip).
        Dead branches found at one level are reported as the prune list of
        the *next* round — batched transports piggyback them for free.
        Each node enters the frontier at most once, even when start nodes
        lie below other start nodes.

        Returns ``(zero_nodes, pruned_nodes)``, where ``zero_nodes`` are
        the nodes whose summed evaluations are zero at *every* point.
        """
        if self.server.batched_rounds:
            return self._descend_batched(points, stats, start_nodes)
        return self._descend_lazy(points, stats, start_nodes)

    def _received(self, node_ids: Sequence[int], points: Sequence[int],
                  children: bool) -> bool:
        """Whether the query holds all a round over ``node_ids`` would return.

        That is each node's server evaluation at every point and, for a
        round that asks for child lists, each node's child list.  A
        child-axis filter's values arrive without child lists, so values
        alone never let a descent read a node as a leaf.
        """
        if children and any(node_id not in self._children_cache
                            for node_id in node_ids):
            return False
        return all(node_id in self._server_values.get(point, ())
                   for point in points for node_id in node_ids)

    def _round(self, node_ids: Sequence[int], points: Sequence[int],
               stats: QueryStats, include_children: bool,
               prune: Sequence[int] = (), lookahead: int = 0) -> None:
        """One frontier round; what it returns goes into the query's memo."""
        result = self.server.frontier_round(
            node_ids, points, prune=prune, include_children=include_children,
            lookahead=lookahead)
        stats.round_trips += result.round_trips
        for point in points:
            received = result.evaluations[point]
            self._server_values.setdefault(point, {}).update(received)
            stats.evaluations += len(received)
        self._children_cache.update(result.children)

    def _zero_at_all(self, node_ids: Sequence[int],
                     points: Sequence[int]) -> List[bool]:
        """Per node, whether its summed evaluation is zero at *every* point.

        The server's halves come from the query's memo; the client
        evaluates its own shares of ``node_ids`` at every point at once.
        """
        zero = [True] * len(node_ids)
        client_values = self.client_shares.evaluate_points(node_ids, points)
        for point in points:
            modulus = self.ring.evaluation_modulus(point)
            received = self._server_values[point]
            for index, (node_id, client_value) in enumerate(
                    zip(node_ids, client_values[point])):
                total = client_value + received[node_id]
                if modulus is not None:
                    total %= modulus
                if not self.ring.evaluation_is_zero(total, point):
                    zero[index] = False
        return zero

    @staticmethod
    def _next_level(alive: Sequence[int], children: Mapping[int, List[int]],
                    touched: Set[int]) -> List[int]:
        """The children of ``alive`` that the descent has not touched yet.

        When start nodes nest, the nodes below an inner start node entered
        the descent with it, so they and their subtrees are walked once.
        The returned nodes are added to ``touched``.
        """
        level = [child for node_id in alive for child in children[node_id]
                 if child not in touched]
        touched.update(level)
        return level

    def _descend_batched(self, points: Sequence[int], stats: QueryStats,
                         start_nodes: Optional[Sequence[int]] = None
                         ) -> Tuple[Set[int], Set[int]]:
        """Descent over a batched transport.

        Each exchange covers the current frontier *plus*
        :attr:`FRONTIER_LOOKAHEAD` speculated levels.  A level whose values
        and child lists the query's memo already holds (speculated by an
        earlier exchange, or received by an earlier step of the same
        query) is decided locally; the engine goes back to the server only
        when the frontier outruns the memo.  Each node enters the frontier
        at most once, even when start nodes lie below other start nodes.
        """
        frontier: List[int] = (list(start_nodes) if start_nodes is not None
                               else [self.server.root_id()])
        zero_nodes: Set[int] = set()
        pruned: Set[int] = set()
        touched: Set[int] = set(frontier)
        pending_dead: List[int] = []

        while frontier:
            if not self._received(frontier, points, children=True):
                self._round(frontier, points, stats, include_children=True,
                            prune=pending_dead,
                            lookahead=self.FRONTIER_LOOKAHEAD)
                pending_dead = []
            # A node stays alive only if its summed evaluation is zero at
            # *all* points (its subtree contains every queried tag).
            zero_at_all = self._zero_at_all(frontier, points)
            alive = [node_id for node_id, zero in zip(frontier, zero_at_all)
                     if zero]
            dead = [node_id for node_id, zero in zip(frontier, zero_at_all)
                    if not zero]
            pending_dead.extend(dead)
            pruned.update(dead)
            stats.nodes_pruned += len(dead)
            zero_nodes.update(alive)
            frontier = self._next_level(alive, self._children_cache, touched)
        if pending_dead:
            self.server.prune(pending_dead)
        stats.nodes_evaluated += len(touched)
        return zero_nodes, pruned

    def _descend_lazy(self, points: Sequence[int], stats: QueryStats,
                      start_nodes: Optional[Sequence[int]] = None
                      ) -> Tuple[Set[int], Set[int]]:
        """Descent over a chatty transport: lazy per-point evaluation.

        Nodes dead at an earlier point are never evaluated at later points
        and only the live part of the frontier has its children fetched —
        minimal server work and bytes, at one exchange per request kind.
        Each node enters the frontier at most once, as in the batched
        descent.
        """
        frontier: List[int] = (list(start_nodes) if start_nodes is not None
                               else [self.server.root_id()])
        zero_nodes: Set[int] = set()
        pruned: Set[int] = set()
        touched: Set[int] = set(frontier)

        while frontier:
            alive: List[int] = list(frontier)
            for point in points:
                if not alive:
                    break
                sums = self._sum_evaluations(alive, point, stats)
                alive = [node_id for node_id in alive
                         if self.ring.evaluation_is_zero(sums[node_id], point)]
            dead = [node_id for node_id in frontier if node_id not in alive]
            if dead:
                self.server.prune(dead)
                pruned.update(dead)
                stats.nodes_pruned += len(dead)
            zero_nodes.update(alive)
            if not alive:
                break
            frontier = self._next_level(alive, self._children(alive, stats),
                                        touched)
        stats.nodes_evaluated += len(touched)
        return zero_nodes, pruned

    # -- candidate classification & verification -----------------------------------------------
    def _classify_candidates(self, outcome: LookupOutcome, point: int,
                             stats: QueryStats) -> None:
        zero_set = set(outcome.zero_nodes)
        children_map = self._children(sorted(zero_set), stats) if zero_set else {}

        definite: List[int] = []
        ambiguous: List[int] = []
        exact_evaluation = isinstance(self.ring, FpQuotientRing)
        for node_id in sorted(zero_set):
            child_zero = any(child in zero_set for child in children_map.get(node_id, []))
            if not child_zero and exact_evaluation:
                # Deepest zero node in F_p: the zero cannot come from below, so
                # the node itself carries the tag (paper: "a definite answer").
                definite.append(node_id)
            else:
                ambiguous.append(node_id)

        if self.verification is VerificationMode.NONE:
            outcome.matches = definite
            outcome.unverified_candidates = ambiguous
            return

        if self.verification is VerificationMode.FULL:
            confirmed, rejected = self._verify_full(ambiguous + (
                [] if exact_evaluation else definite), point, stats)
            if exact_evaluation:
                outcome.matches = sorted(set(definite) | set(confirmed))
            else:
                outcome.matches = sorted(confirmed)
            outcome.unverified_candidates = []
            return

        # CONSTANT_ONLY: cheap check; inconclusive nodes stay candidates.
        confirmed, inconclusive = self._verify_constant_only(ambiguous, point, stats)
        outcome.matches = sorted(set(definite) | set(confirmed))
        outcome.unverified_candidates = sorted(inconclusive)

    def _verification_children(self, candidates: Sequence[int], stats: QueryStats,
                               constants_only: bool
                               ) -> Tuple[Dict[int, List[int]], Optional[Dict[int, object]]]:
        """Child lists of ``candidates`` plus, on a cache miss, their share data.

        When every candidate's children are already cached (the common case
        after a descent) only the cached structure is returned and the
        caller fetches share data separately.  Otherwise one
        :meth:`ServerInterface.verification_bundle` exchange answers both —
        batched transports collapse it into a single round trip.
        """
        if all(node_id in self._children_cache for node_id in candidates):
            return self._children(list(candidates), stats), None
        children_map, data, round_trips = self.server.verification_bundle(
            list(candidates), constants_only=constants_only)
        self._children_cache.update(children_map)
        stats.round_trips += round_trips
        if constants_only:
            stats.constants_fetched += len(data)
        else:
            stats.polynomials_fetched += len(data)
        return children_map, data

    def _verify_full(self, candidates: Sequence[int], point: int,
                     stats: QueryStats) -> Tuple[List[int], List[int]]:
        """Exact verification: a candidate is confirmed when its recovered
        tag value (eq. (1)–(3), :meth:`tag_values`) is ``point``."""
        values = self.tag_values(candidates, stats)
        confirmed = [node_id for node_id in candidates if values[node_id] == point]
        rejected = [node_id for node_id in candidates if values[node_id] != point]
        return confirmed, rejected

    def _closure_rows(self, candidates: Sequence[int], stats: QueryStats
                      ) -> Tuple[Dict[int, List[int]], List[int],
                                 Mapping[int, Sequence[int]]]:
        """``(children, closure, rows)``: the candidates' child lists, their
        closure (each candidate and its children) and its server share rows.

        Rows the query holds are not fetched again: one fetch brings those
        it lacks, and no round is sent when it lacks none.  A closure
        whose child lists the query lacks comes whole in one
        :meth:`ServerInterface.verification_bundle`.  Rows that all came
        in one fetch are returned as that fetch's block, as received.
        """
        children_map, bundled = self._verification_children(
            candidates, stats, constants_only=False)
        needed = sorted(set(candidates) | {
            child for node_id in candidates for child in children_map[node_id]})
        if bundled is not None:
            self._row_blocks.update(dict.fromkeys(bundled, bundled))
            return children_map, needed, bundled
        missing = [node_id for node_id in needed
                   if node_id not in self._row_blocks]
        if missing:
            fetched = self.server.fetch_polynomial_rows(missing)
            stats.round_trips += 1
            stats.polynomials_fetched += len(missing)
            self._row_blocks.update(dict.fromkeys(fetched, fetched))
            if len(missing) == len(needed):
                return children_map, needed, fetched
        return children_map, needed, self._held_rows(needed)

    def _held_rows(self, node_ids: Sequence[int]
                   ) -> Mapping[int, Sequence[int]]:
        """The memo's rows of ``node_ids``: the block that holds them all,
        else one block gathered from the blocks that do.

        Wire blocks of one width are gathered into one int64 block; rows
        of any other kind into a dict of rows.
        """
        groups: Dict[int, Tuple[Mapping[int, Sequence[int]], List[int]]] = {}
        for node_id in node_ids:
            block = self._row_blocks[node_id]
            groups.setdefault(id(block), (block, []))[1].append(node_id)
        parts = list(groups.values())
        if len(parts) == 1:
            return parts[0][0]
        width = getattr(parts[0][0], "width", None)
        if all(isinstance(block, CoefficientRows) and block.matrix is not None
               and block.width == width for block, _ in parts):
            return CoefficientRows(
                [node_id for _, ids in parts for node_id in ids], width,
                matrix=numpy_or_none().concatenate(
                    [block.matrix_rows(ids) for block, ids in parts]))
        return {node_id: self._row_blocks[node_id][node_id]
                for node_id in node_ids}

    def _recover_tags(self, candidates: Sequence[int],
                      children_map: Dict[int, List[int]],
                      needed: Sequence[int],
                      server_rows: Mapping[int, Sequence[int]]
                      ) -> List[Union[int, TagRecoveryError]]:
        """Each candidate's tag value, or the error that stops verification.

        Full node polynomials are the client's regenerated shares plus the
        server's rows.  With an evaluation domain (``F_p`` rings on the
        vectorized tier) every candidate is solved in one pass of array
        arithmetic; otherwise each goes through :meth:`recover_tag`, up to
        the first failure.  A failing candidate yields the
        :class:`TagRecoveryError` ``recover_tag`` raises for it instead of
        a value.
        """
        ring = self.ring
        domain = ring.evaluation_domain()
        if domain is not None:
            block = (server_rows.matrix
                     if isinstance(server_rows, CoefficientRows) else None)
            received = domain.coefficient_matrix(
                server_rows.values() if block is None else block,
                lambda row: ring.from_coefficients(row).coeffs)
            position = {node_id: index
                        for index, node_id in enumerate(server_rows)}
            server = received[[position[node_id] for node_id in needed]]
            client = self.client_shares.share_rows(needed)
            row_of = {node_id: index for index, node_id in enumerate(needed)}
            return domain.recover_tags(
                domain.transform((client + server) % domain.p),
                [row_of[node_id] for node_id in candidates],
                [[row_of[child] for child in children_map[node_id]]
                 for node_id in candidates])
        shares = {node_id: ring.from_coefficients(server_rows[node_id])
                  for node_id in needed}
        client = self.client_shares.shares_for(needed)
        polynomials = {node_id: ring.add(client[node_id], shares[node_id])
                       for node_id in needed}
        results: List[Union[int, TagRecoveryError]] = []
        for node_id in candidates:
            try:
                results.append(ring.recover_tag(
                    polynomials[node_id],
                    [polynomials[child] for child in children_map[node_id]]))
            except TagRecoveryError as exc:
                results.append(exc)
                break
        return results

    def _verify_constant_only(self, candidates: Sequence[int], point: int,
                              stats: QueryStats) -> Tuple[List[int], List[int]]:
        """Cheap check using only constant coefficients (trusted-server mode).

        The constant-coefficient equation ``f_0 = (-t)·∏ (q_i)_0`` holds
        for a node carrying ``t`` whenever the product ``(x-t)·∏ q_i`` does
        not wrap around the ring modulus (subtrees of fewer than
        ``degree_bound`` nodes).  When the check fails the node is reported
        as an *unverified candidate*, so no true match is lost.  Passing is
        not proof: once the product wraps, the equation can hold for a node
        that does not carry ``t``, which is then confirmed as a match.
        """
        confirmed: List[int] = []
        inconclusive: List[int] = []
        if not candidates:
            return confirmed, inconclusive
        children_map, bundled = self._verification_children(
            candidates, stats, constants_only=True)
        needed = sorted(set(candidates) | {
            child for node_id in candidates for child in children_map[node_id]})
        if bundled is None:
            server_constants = self.server.fetch_constants(needed)
            stats.round_trips += 1
            stats.constants_fetched += len(needed)
        else:
            server_constants = bundled
        client_constants = {node_id: share.constant_term for node_id, share
                            in self.client_shares.shares_for(needed).items()}
        ring = self.ring.coefficient_ring
        for node_id in candidates:
            stats.candidates_verified += 1
            node_constant = ring.add(client_constants[node_id],
                                     server_constants[node_id])
            product = ring.one
            for child in children_map[node_id]:
                child_constant = ring.add(client_constants[child],
                                          server_constants[child])
                product = ring.mul(product, child_constant)
            expected = ring.mul(ring.neg(ring.coerce(point)), product)
            if ring.eq(node_constant, expected):
                confirmed.append(node_id)
            else:
                inconclusive.append(node_id)
        return confirmed, inconclusive
