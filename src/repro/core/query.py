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
:class:`ServerInterface`, whose one read is the frontier exchange: share
evaluations of a set of nodes at every query point, their child lists
and verification fetches, answered together.  A descent runs one such
round per tree level for its whole frontier.  :class:`LocalServerAdapter`
answers the exchange in process (tests, the plain API and the reference
the oracle compares against), while
:class:`repro.net.client.RemoteServerAdapter` sends each exchange as one
``frontier`` request over an instrumented channel to measure bandwidth
and round trips.  Both count what the server observes in one ledger,
:class:`ServerObservations`.
"""

from __future__ import annotations

import abc
import enum
from collections import Counter
from collections.abc import Mapping
from itertools import chain
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

from ..algebra.quotient import EncodingRing, FpQuotientRing
from ..algebra.vkernels import numpy_or_none
from ..errors import QueryError, TagRecoveryError, VerificationError
from .mapping import TagMapping
from .share_tree import ClientShareGenerator, CoefficientRows, ShareStore

__all__ = [
    "VerificationMode",
    "QueryStats",
    "FrontierResult",
    "CoefficientRows",
    "ServerInterface",
    "ServerObservations",
    "closure_order",
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


class FrontierResult(NamedTuple):
    """The answer to one frontier exchange, keyed by node id.

    ``evaluations`` maps every point asked for to ``node_id -> server
    share evaluation``, ``children`` every listed parent to its child
    list, ``rows`` every fetched node to its share's coefficient row, as
    received (untrusted and maybe unreduced: the verifier normalises it),
    and ``constants`` every fetched node to its share's constant term.
    """

    evaluations: Dict[int, Dict[int, int]]
    children: Mapping[int, Sequence[int]]
    rows: Mapping[int, Sequence[int]]
    constants: Mapping[int, int]


class ServerInterface(abc.ABC):
    """The requests a client may send to the (untrusted) search server."""

    @abc.abstractmethod
    def root_id(self) -> int:
        """Identifier of the root node."""

    @abc.abstractmethod
    def frontier(self, node_ids: Sequence[int] = (), points: Sequence[int] = (),
                 include_children: bool = False,
                 fetch_polynomials: Sequence[int] = (),
                 fetch_constants: Sequence[int] = (),
                 lookahead: int = 0) -> FrontierResult:
        """One exchange with the fields of a wire ``frontier`` request.

        The server evaluates its shares of ``node_ids`` at every point, and
        may speculate up to ``lookahead`` further levels below them; with
        ``include_children`` it lists the children of every node it
        evaluated.  It serves the share rows of ``fetch_polynomials`` and
        the constant terms of ``fetch_constants``; with child lists, a
        fetch answers the Theorem-1/2 closure: each fetched node's child
        list, and the data of the node and of its children.  Prune notices
        given since the last exchange travel with it.
        """

    @abc.abstractmethod
    def prune(self, node_ids: Sequence[int]) -> None:
        """Inform the server that these subtrees are dead for the current query."""

    def flush_prunes(self) -> int:
        """Deliver any buffered prune notices; returns round trips spent.

        Transports that piggyback prune notices on later requests override
        this; for everything else pruning is immediate and there is nothing
        to flush.
        """
        return 0


class ServerObservations:
    """What an honest-but-curious server learns while answering queries, counted.

    The ledger keeps counts, not the ids behind them, so it does not grow
    with traffic: one integer per kind of observation plus
    ``point_counts``, which maps each query point to the number of
    (request, point) evaluations that named it and is bounded by the
    number of distinct points.
    """

    __slots__ = ("point_counts", "evaluation_requests", "pruned_nodes",
                 "polynomials_served", "constants_served", "requests_handled")

    def __init__(self) -> None:
        #: Query point -> how many (request, point) evaluations named it.
        self.point_counts: Counter = Counter()
        #: Node evaluations the server was asked for.
        self.evaluation_requests = 0
        #: Node ids clients reported as dead branches.
        self.pruned_nodes = 0
        #: Share polynomials served for verification.
        self.polynomials_served = 0
        #: Constant terms served (trusted-server verification).
        self.constants_served = 0
        self.requests_handled = 0

    def as_dict(self) -> Dict[str, int]:
        """Counted summary for reports."""
        return {
            "distinct_points_seen": len(self.point_counts),
            "evaluation_requests": self.evaluation_requests,
            "pruned_nodes": self.pruned_nodes,
            "polynomials_served": self.polynomials_served,
            "constants_served": self.constants_served,
            "requests_handled": self.requests_handled,
        }


def closure_order(node_ids: Iterable[int],
                  children: Mapping[int, Sequence[int]]) -> List[int]:
    """The Theorem-1/2 closure of ``node_ids`` in fetch order: each node,
    then its children not yet named.

    A fetch with child lists serves its rows and constants in this order,
    over the wire (:func:`repro.net.messages.frontier_layout`) and in
    process alike.
    """
    return list(dict.fromkeys(chain.from_iterable(
        (node_id, *children[node_id]) for node_id in node_ids)))


class LocalServerAdapter(ServerInterface):
    """Runs the server role in-process against a share store.

    Each exchange is answered from the store's batch reads at lookahead
    0: in process a round costs no trip, so speculation would only add
    evaluations.  What an honest-but-curious server observes is counted
    in :attr:`observations`, the ledger a served document keeps, so the
    leakage analysis (:mod:`repro.analysis.leakage`) audits both alike.
    """

    def __init__(self, share_tree: ShareStore) -> None:
        self.share_tree = share_tree
        self.observations = ServerObservations()

    def root_id(self) -> int:
        if self.share_tree.root_id is None:
            raise QueryError("the server share tree is empty")
        return self.share_tree.root_id

    def frontier(self, node_ids: Sequence[int] = (), points: Sequence[int] = (),
                 include_children: bool = False,
                 fetch_polynomials: Sequence[int] = (),
                 fetch_constants: Sequence[int] = (),
                 lookahead: int = 0) -> FrontierResult:
        store, ledger = self.share_tree, self.observations
        ledger.requests_handled += 1
        node_ids = list(node_ids)
        evaluations: Dict[int, Dict[int, int]] = {}
        for point in dict.fromkeys(points):
            ledger.point_counts[point] += 1
            ledger.evaluation_requests += len(node_ids)
            evaluations[point] = (store.evaluate_many(node_ids, point)
                                  if node_ids else {})
        children: Dict[int, List[int]] = {}
        if include_children:
            children = store.child_lists(list(dict.fromkeys(
                [*node_ids, *fetch_polynomials, *fetch_constants])))
            fetch_polynomials = closure_order(fetch_polynomials, children)
            fetch_constants = closure_order(fetch_constants, children)
        rows: Mapping[int, Sequence[int]] = {}
        if fetch_polynomials:
            ledger.polynomials_served += len(fetch_polynomials)
            rows = store.coefficient_rows(fetch_polynomials)
        constants: Dict[int, int] = {}
        if fetch_constants:
            ledger.constants_served += len(fetch_constants)
            constants = dict(zip(fetch_constants, store.coefficient_rows(
                fetch_constants).constant_terms()))
        return FrontierResult(evaluations, children, rows, constants)

    def prune(self, node_ids: Sequence[int]) -> None:
        self.observations.pruned_nodes += len(node_ids)


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

    Every read is one :meth:`ServerInterface.frontier` exchange, and the
    engine does each piece of a query's work once:

    * a descent enters each node into its frontier at most once, so when
      its start nodes nest (a descendant step from nested context nodes)
      the subtrees below the inner ones are walked, evaluated and pruned
      once;
    * a memo holds the server evaluations (``point -> node -> value``)
      and the child lists the query has received.  A descent level or a
      child-axis filter whose round would return nothing the memo lacks
      sends no round; when a round is needed it is the whole-frontier
      round, unchanged;
    * FULL verification keeps the server share rows the query has
      received and the tag value of every node it has recovered
      (:meth:`tag_values`): a node is recovered once per query, and a
      share row crosses the wire once per query, unless a closure whose
      child lists the query lacks brings it again in its one exchange;
    * each query point is sent once per round, however often its tag
      recurs in the query.

    The memo belongs to one query: it starts empty at every
    :meth:`lookup` and every advanced query (:meth:`begin_query`).  Kept
    longer, it would answer a later query from values, child lists, rows
    and tags that a rename, an insert or another writer has since
    changed.
    """

    #: Tree levels the server evaluates speculatively below each frontier
    #: exchange: one level halves the descent's round trips over the
    #: wire, at the price of evaluating children of nodes that turn out
    #: dead.  The in-process server answers at lookahead 0.
    FRONTIER_LOOKAHEAD = 1

    def __init__(self, ring: EncodingRing, mapping: TagMapping,
                 client_shares: ClientShareGenerator, server: ServerInterface,
                 verification: VerificationMode = VerificationMode.FULL) -> None:
        self.ring = ring
        self.mapping = mapping
        self.client_shares = client_shares
        self.server = server
        self.verification = verification
        # The query's memo: the child lists it has received; the server
        # evaluations, ``point -> node_id -> value``; the server share
        # rows, ``node_id -> the block that holds its row`` as received;
        # and the recovered tag values.
        self._children_cache: Dict[int, Sequence[int]] = {}
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
        zero_nodes, _ = self._descend(self._points(tags, stats), stats,
                                      start_nodes=start_nodes)
        return zero_nodes, stats

    def filter_containing(self, node_ids: Sequence[int], tags: Sequence[str],
                          stats: QueryStats) -> List[int]:
        """Subset of ``node_ids`` whose subtree contains *all* ``tags``.

        One exchange for all tags, no descent — used by the advanced query
        executor for child-axis steps.  The exchange is skipped when the
        query's memo already holds every node's value at every point, as
        it does for the children of context nodes that an earlier
        descendant step descended through.
        """
        alive = list(node_ids)
        if alive and tags:
            points = self._points(tags, stats)
            if not self._received(alive, points, children=False):
                self._exchange(stats, alive, points)
            alive = [node_id for node_id, zero
                     in zip(alive, self._zero_at_all(alive, points)) if zero]
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

    def children_of(self, node_ids: Sequence[int],
                    stats: QueryStats) -> Dict[int, Sequence[int]]:
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
    def _points(self, tags: Sequence[str], stats: QueryStats) -> List[int]:
        """The query points of ``tags``, each once, counted as sent.

        A tag that recurs in a query is one point: the server is asked
        for it, and the client checks it, once per round.
        """
        points = list(dict.fromkeys(self.mapping.value(tag) for tag in tags))
        stats.points_sent += len(points)
        return points

    def _exchange(self, stats: QueryStats, node_ids: Sequence[int] = (),
                  points: Sequence[int] = (), include_children: bool = False,
                  fetch_polynomials: Sequence[int] = (),
                  fetch_constants: Sequence[int] = (),
                  lookahead: int = 0) -> FrontierResult:
        """One :meth:`ServerInterface.frontier` exchange, counted in
        ``stats``; the values and child lists it returns go into the
        query's memo."""
        result = self.server.frontier(node_ids, points, include_children,
                                      fetch_polynomials, fetch_constants,
                                      lookahead)
        stats.round_trips += 1
        for point, received in result.evaluations.items():
            self._server_values.setdefault(point, {}).update(received)
            stats.evaluations += len(received)
        self._children_cache.update(result.children)
        stats.polynomials_fetched += len(result.rows)
        stats.constants_fetched += len(result.constants)
        return result

    def _children(self, node_ids: Sequence[int],
                  stats: QueryStats) -> Dict[int, Sequence[int]]:
        missing = [node_id for node_id in node_ids if node_id not in self._children_cache]
        if missing:
            self._exchange(stats, missing, include_children=True)
        return {node_id: self._children_cache[node_id] for node_id in node_ids}

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
    def _next_level(alive: Sequence[int], children: Mapping[int, Sequence[int]],
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

    def _descend(self, points: Sequence[int], stats: QueryStats,
                 start_nodes: Optional[Sequence[int]] = None
                 ) -> Tuple[Set[int], Set[int]]:
        """Breadth-first descent pruning on *all* ``points`` simultaneously.

        Each level costs at most one frontier exchange: the whole frontier
        is evaluated at every query point and its child lists come in the
        same exchange (children of nodes that turn out dead cost bytes but
        never an extra round trip), with :attr:`FRONTIER_LOOKAHEAD`
        speculated levels below it.  A level whose values and child lists
        the query's memo already holds (speculated by an earlier exchange,
        or received by an earlier step of the same query) is decided
        locally; the engine goes back to the server only when the frontier
        outruns the memo.  Dead branches are reported as they are found;
        a transport that buffers the notices sends them with its next
        exchange.  Each node enters the frontier at most once, even when
        start nodes lie below other start nodes.

        Returns ``(zero_nodes, pruned_nodes)``, where ``zero_nodes`` are
        the nodes whose summed evaluations are zero at *every* point.
        """
        frontier: List[int] = (list(start_nodes) if start_nodes is not None
                               else [self.server.root_id()])
        zero_nodes: Set[int] = set()
        pruned: Set[int] = set()
        touched: Set[int] = set(frontier)

        while frontier:
            if not self._received(frontier, points, children=True):
                self._exchange(stats, frontier, points, include_children=True,
                               lookahead=self.FRONTIER_LOOKAHEAD)
            # A node stays alive only if its summed evaluation is zero at
            # *all* points (its subtree contains every queried tag).
            zero_at_all = self._zero_at_all(frontier, points)
            alive = [node_id for node_id, zero in zip(frontier, zero_at_all)
                     if zero]
            dead = [node_id for node_id, zero in zip(frontier, zero_at_all)
                    if not zero]
            if dead:
                self.server.prune(dead)
            pruned.update(dead)
            stats.nodes_pruned += len(dead)
            zero_nodes.update(alive)
            frontier = self._next_level(alive, self._children_cache, touched)
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
                               ) -> Tuple[Mapping[int, Sequence[int]],
                                          Optional[Mapping[int, object]]]:
        """Child lists of ``candidates`` plus, on a cache miss, their share data.

        When every candidate's children are already cached (the common case
        after a descent) only the cached structure is returned and the
        caller fetches share data separately.  Otherwise one closure
        exchange answers both: the candidates' child lists, and the rows
        (or constants) of the candidates and their children.
        """
        if all(node_id in self._children_cache for node_id in candidates):
            return self._children(list(candidates), stats), None
        fetched = list(candidates)
        if constants_only:
            result = self._exchange(stats, include_children=True,
                                    fetch_constants=fetched)
            return result.children, result.constants
        result = self._exchange(stats, include_children=True,
                                fetch_polynomials=fetched)
        return result.children, result.rows

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
        whose child lists the query lacks comes whole in one closure
        exchange.  Rows that all came in one fetch are returned as that
        fetch's block, as received.
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
            fetched = self._exchange(stats, fetch_polynomials=missing).rows
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
        server_constants = (bundled if bundled is not None else
                            self._exchange(stats, fetch_constants=needed).constants)
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
