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
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing, FpQuotientRing
from ..errors import QueryError, TagRecoveryError, VerificationError
from .mapping import TagMapping
from .share_tree import ClientShareGenerator, ServerShareTree

__all__ = [
    "VerificationMode",
    "QueryStats",
    "FrontierResult",
    "ServerInterface",
    "LocalServerAdapter",
    "LookupOutcome",
    "AdaptiveLookahead",
    "QueryEngine",
]


class AdaptiveLookahead:
    """Speculation-depth controller driven by the observed prune rate.

    Batched v2 transports accept a ``lookahead`` depth per
    :meth:`ServerInterface.frontier_round`: the server speculatively
    evaluates that many extra levels below the requested frontier.  Deep
    speculation is free bandwidth-wise only while the frontier stays alive
    — every child of a node that turns out dead was evaluated and shipped
    for nothing.  This controller tracks the fraction of each round's
    frontier that got pruned and adjusts the depth one step at a time:
    deepen while the prune rate stays at or below ``deepen_below``, back
    off when it reaches ``backoff_above`` (between the two thresholds the
    depth holds).

    Instances are plain ``lookahead`` values: ``int(controller)`` (and
    hence :class:`~repro.net.messages.FrontierRequest`, which coerces with
    ``int``) sees the current depth, so a controller can be passed wherever
    a fixed depth is accepted — ``QueryEngine(frontier_lookahead=...)``,
    :meth:`ServerInterface.frontier_round`, or the async
    ``AsyncServerInterface.begin_frontier``/``frontier_round`` pair.  The
    engine feeds it automatically; callers driving a transport by hand
    call :meth:`observe` with each round's frontier size and prune count.
    """

    #: How many per-round trajectory entries are retained (newest win), so
    #: a long-lived serving controller cannot grow without bound.
    TRAJECTORY_LIMIT = 1024

    def __init__(self, initial: int = 1, min_depth: int = 0,
                 max_depth: int = 4, deepen_below: float = 0.25,
                 backoff_above: float = 0.5,
                 trajectory_limit: int = TRAJECTORY_LIMIT) -> None:
        if not 0 <= min_depth <= max_depth:
            raise ValueError(
                f"need 0 <= min_depth <= max_depth, got {min_depth}..{max_depth}")
        if not 0.0 <= deepen_below <= backoff_above:
            raise ValueError(
                f"need 0 <= deepen_below <= backoff_above, got "
                f"{deepen_below}/{backoff_above}")
        self.min_depth = min_depth
        self.max_depth = max_depth
        self.deepen_below = deepen_below
        self.backoff_above = backoff_above
        self.depth = max(min_depth, min(initial, max_depth))
        #: Rounds observed (diagnostics; mirrored into bench output).
        self.rounds = 0
        #: Depth increases / decreases taken so far.
        self.deepened = 0
        self.backed_off = 0
        #: Bounded per-round history: the prune-rate trajectory the
        #: controller steered by, exported via :meth:`trajectory` /
        #: :meth:`as_dict` for the observability layer and BENCH_7.
        self._trajectory: Deque[Dict[str, float]] = deque(
            maxlen=max(int(trajectory_limit), 1))

    def observe(self, frontier_size: int, pruned: int) -> int:
        """Fold one descent round's outcome in; returns the new depth."""
        if frontier_size > 0:
            self.rounds += 1
            rate = pruned / frontier_size
            if rate <= self.deepen_below and self.depth < self.max_depth:
                self.depth += 1
                self.deepened += 1
            elif rate >= self.backoff_above and self.depth > self.min_depth:
                self.depth -= 1
                self.backed_off += 1
            self._trajectory.append({
                "round": self.rounds,
                "frontier_size": int(frontier_size),
                "pruned": int(pruned),
                "prune_rate": rate,
                "depth": self.depth,
            })
        return self.depth

    def trajectory(self) -> List[Dict[str, float]]:
        """Per-round history entries, oldest first (bounded, newest win).

        Each entry records the round number, the observed frontier size
        and prune count, the resulting prune rate, and the depth the
        controller chose *after* folding that round in.
        """
        return [dict(entry) for entry in self._trajectory]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary plus the trajectory (for stats/bench payloads)."""
        return {
            "depth": self.depth,
            "min_depth": self.min_depth,
            "max_depth": self.max_depth,
            "rounds": self.rounds,
            "deepened": self.deepened,
            "backed_off": self.backed_off,
            "trajectory": self.trajectory(),
        }

    def __int__(self) -> int:
        return self.depth

    def __index__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return (f"AdaptiveLookahead(depth={self.depth}, rounds={self.rounds}, "
                f"deepened={self.deepened}, backed_off={self.backed_off})")


class VerificationMode(enum.Enum):
    """How much the client checks the server's answers (§4.3, last paragraph)."""

    #: Untrusted server: fetch full share polynomials of every candidate and
    #: its children, solve for the tag value and check all coefficient
    #: equations.  Results are exact and verified.
    FULL = "full"

    #: Trusted server: only constant coefficients are transmitted and only the
    #: constant-term equation is checked.  Cheaper in bandwidth, weaker in
    #: assurance (candidates whose check is inconclusive are accepted).
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
        self.candidates_verified = 0   # candidate nodes run through verification
        self.polynomials_fetched = 0   # full share polynomials transferred
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
    #: one exchange (the batched v2 protocol).  The engine then evaluates
    #: the full frontier at every point up front — extra share evaluations
    #: for nodes that die at the first point, in exchange for O(depth)
    #: round trips.  Chatty-but-minimal-work transports (in-process, v1)
    #: leave this False and get the original lazy per-point descent.
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
                              ) -> Dict[int, Sequence[int]]:
        """Server-share coefficient rows, as received (untrusted).

        What FULL verification consumes: rows may be unreduced, and the
        verifier normalises them.  The base implementation takes the
        coefficients of :meth:`fetch_polynomials`; wire transports return
        the decoded rows without building a polynomial per node.
        """
        return {node_id: poly.coeffs
                for node_id, poly in self.fetch_polynomials(node_ids).items()}

    @abc.abstractmethod
    def prune(self, node_ids: Sequence[int]) -> None:
        """Inform the server that these subtrees are dead for the current query."""

    # -- batched protocol (default: composed from the primitives above) ---------------
    def frontier_round(self, node_ids: Sequence[int], points: Sequence[int],
                       prune: Sequence[int] = (), include_children: bool = True,
                       lookahead: int = 0) -> FrontierResult:
        """One whole descent round: prune notice, evaluations, child lists.

        The base implementation composes the per-kind primitives (one
        exchange each — the v1 behaviour) and never speculates
        (``lookahead`` is ignored: a chatty transport gains nothing from
        it); transports that support the v2 wire protocol override it with
        a single batched exchange that may cover several levels.
        """
        round_trips = 0
        if prune:
            self.prune(list(prune))
            round_trips += 1
        evaluations: Dict[int, Dict[int, int]] = {}
        for point in points:
            evaluations[point] = self.evaluate(node_ids, point)
            round_trips += 1
        children: Dict[int, List[int]] = {}
        if include_children and node_ids:
            children = self.children_of(node_ids)
            round_trips += 1
        return FrontierResult(evaluations, children, round_trips)

    def verification_bundle(self, node_ids: Sequence[int],
                            constants_only: bool = False
                            ) -> Tuple[Dict[int, List[int]], Dict[int, object], int]:
        """Child lists plus share data for ``node_ids`` *and their children*.

        Verification (Theorem 1/2) always needs a candidate's children, so
        the v2 transport answers both in one exchange; the base
        implementation composes the two v1 requests.  Returns
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
    """Client-side query engine implementing the §4.3 protocol."""

    def __init__(self, ring: EncodingRing, mapping: TagMapping,
                 client_shares: ClientShareGenerator, server: ServerInterface,
                 verification: VerificationMode = VerificationMode.FULL,
                 frontier_lookahead: int = 1) -> None:
        self.ring = ring
        self.mapping = mapping
        self.client_shares = client_shares
        self.server = server
        self.verification = verification
        #: Speculative depth per batched frontier exchange (v2 transports):
        #: a fixed int, an :class:`AdaptiveLookahead` controller, or the
        #: string ``"adaptive"`` for a controller with default thresholds.
        if frontier_lookahead == "adaptive":
            frontier_lookahead = AdaptiveLookahead()
        self.frontier_lookahead = frontier_lookahead
        # Cache of the public structure discovered so far (children lists).
        self._children_cache: Dict[int, List[int]] = {}

    # -- public entry points ----------------------------------------------------------
    def lookup(self, tag: str) -> LookupOutcome:
        """Evaluate the element lookup ``//tag`` (§4.3 "Element Lookup")."""
        point = self.mapping.value(tag)
        outcome = LookupOutcome(tag, point)
        stats = outcome.stats
        stats.points_sent += 1

        zero_nodes, pruned, evaluations = self._descend([point], stats)
        outcome.zero_nodes = sorted(zero_nodes)
        outcome.pruned_nodes = sorted(pruned)

        self._classify_candidates(outcome, point, evaluations, stats)
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
        zero_nodes, _, _ = self._descend(points, stats, start_nodes=start_nodes)
        return zero_nodes, stats

    def filter_containing(self, node_ids: Sequence[int], tags: Sequence[str],
                          stats: QueryStats) -> List[int]:
        """Subset of ``node_ids`` whose subtree contains *all* ``tags``.

        A single evaluation round per tag (or, over a batched transport, one
        exchange for *all* tags), no descent — used by the advanced query
        executor for child-axis steps.
        """
        alive = list(node_ids)
        if self.server.batched_rounds and alive and tags:
            points = [self.mapping.value(tag) for tag in tags]
            stats.points_sent += len(set(points))
            result = self.server.frontier_round(alive, points,
                                                include_children=False)
            stats.round_trips += result.round_trips
            for point in points:
                server_values = result.evaluations[point]
                stats.evaluations += len(server_values)
                client_values = self.client_shares.evaluate_many(alive, point)
                modulus = self.ring.evaluation_modulus(point)
                still_alive = []
                for node_id in alive:
                    total = client_values[node_id] + server_values[node_id]
                    if modulus is not None:
                        total %= modulus
                    if self.ring.evaluation_is_zero(total, point):
                        still_alive.append(node_id)
                alive = still_alive
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
        client_values = self.client_shares.evaluate_many(node_ids, point)
        modulus = self.ring.evaluation_modulus(point)
        sums: Dict[int, int] = {}
        for node_id in node_ids:
            total = client_values[node_id] + server_values[node_id]
            sums[node_id] = total if modulus is None else total % modulus
        return sums

    def _descend(self, points: Sequence[int], stats: QueryStats,
                 start_nodes: Optional[Sequence[int]] = None
                 ) -> Tuple[Set[int], Set[int], Dict[Tuple[int, int], int]]:
        """Breadth-first descent pruning on *all* ``points`` simultaneously.

        Each level is one :meth:`ServerInterface.frontier_round`: the whole
        frontier is evaluated at every query point and its child lists are
        fetched speculatively in the same exchange (children of nodes that
        turn out dead cost bytes but never an extra round trip).  Dead
        branches found at one level are reported as the prune list of the
        *next* level's round — batched transports piggyback them for free.

        Returns ``(zero_nodes, pruned_nodes, evaluations)`` where
        ``evaluations[(node_id, point)]`` is the summed evaluation value and
        ``zero_nodes`` are the nodes whose sums are zero at *every* point.
        """
        if self.server.batched_rounds:
            return self._descend_batched(points, stats, start_nodes)
        return self._descend_lazy(points, stats, start_nodes)

    def _descend_batched(self, points: Sequence[int], stats: QueryStats,
                         start_nodes: Optional[Sequence[int]] = None
                         ) -> Tuple[Set[int], Set[int], Dict[Tuple[int, int], int]]:
        """Descent over a batched transport.

        Each exchange covers the current frontier *plus*
        ``frontier_lookahead`` speculated levels; the engine consumes the
        speculated evaluations locally and only goes back to the server
        when the frontier outruns the data it already holds.  With an
        :class:`AdaptiveLookahead` controller the depth is re-read before
        every exchange and the controller observes every round's prune
        outcome, so speculation deepens on alive-heavy workloads and backs
        off as soon as speculated children start getting pruned.
        """
        lookahead = self.frontier_lookahead
        if lookahead == "adaptive":
            lookahead = self.frontier_lookahead = AdaptiveLookahead()
        controller = (lookahead if isinstance(lookahead, AdaptiveLookahead)
                      else None)
        frontier: List[int] = (list(start_nodes) if start_nodes is not None
                               else [self.server.root_id()])
        zero_nodes: Set[int] = set()
        pruned: Set[int] = set()
        evaluations: Dict[Tuple[int, int], int] = {}
        touched: Set[int] = set()
        pending_dead: List[int] = []
        # Server data received so far: per-point evaluations and child lists.
        server_values: Dict[int, Dict[int, int]] = {point: {} for point in points}
        known_children: Dict[int, List[int]] = {}

        while frontier:
            touched.update(frontier)
            if any(node_id not in server_values[point]
                   for point in points for node_id in frontier):
                result = self.server.frontier_round(
                    frontier, points, prune=pending_dead,
                    lookahead=int(lookahead))
                pending_dead = []
                stats.round_trips += result.round_trips
                for point in points:
                    received = result.evaluations[point]
                    server_values[point].update(received)
                    stats.evaluations += len(received)
                known_children.update(result.children)
                self._children_cache.update(result.children)
            # A node stays alive only if its summed evaluation is zero at
            # *all* points (its subtree contains every queried tag).
            zero_at_all: Dict[int, bool] = {node_id: True for node_id in frontier}
            for point in points:
                client_values = self.client_shares.evaluate_many(frontier, point)
                modulus = self.ring.evaluation_modulus(point)
                received = server_values[point]
                for node_id in frontier:
                    total = client_values[node_id] + received[node_id]
                    if modulus is not None:
                        total %= modulus
                    evaluations[(node_id, point)] = total
                    if not self.ring.evaluation_is_zero(total, point):
                        zero_at_all[node_id] = False
            alive = [node_id for node_id in frontier if zero_at_all[node_id]]
            dead = [node_id for node_id in frontier if not zero_at_all[node_id]]
            pending_dead.extend(dead)
            pruned.update(dead)
            stats.nodes_pruned += len(dead)
            if controller is not None:
                controller.observe(len(frontier), len(dead))
            zero_nodes.update(alive)
            frontier = [child for node_id in alive
                        for child in known_children.get(node_id, [])]
        if pending_dead:
            self.server.prune(pending_dead)
        stats.nodes_evaluated += len(touched)
        return zero_nodes, pruned, evaluations

    def _descend_lazy(self, points: Sequence[int], stats: QueryStats,
                      start_nodes: Optional[Sequence[int]] = None
                      ) -> Tuple[Set[int], Set[int], Dict[Tuple[int, int], int]]:
        """Descent over a chatty transport: lazy per-point evaluation.

        Nodes dead at an earlier point are never evaluated at later points
        and only the live part of the frontier has its children fetched —
        minimal server work and bytes, at one exchange per request kind.
        """
        frontier: List[int] = (list(start_nodes) if start_nodes is not None
                               else [self.server.root_id()])
        zero_nodes: Set[int] = set()
        pruned: Set[int] = set()
        evaluations: Dict[Tuple[int, int], int] = {}
        touched: Set[int] = set()

        while frontier:
            touched.update(frontier)
            alive: List[int] = list(frontier)
            for point in points:
                if not alive:
                    break
                sums = self._sum_evaluations(alive, point, stats)
                still_alive = []
                for node_id in alive:
                    evaluations[(node_id, point)] = sums[node_id]
                    if self.ring.evaluation_is_zero(sums[node_id], point):
                        still_alive.append(node_id)
                alive = still_alive
            dead = [node_id for node_id in frontier if node_id not in alive]
            if dead:
                self.server.prune(dead)
                pruned.update(dead)
                stats.nodes_pruned += len(dead)
            zero_nodes.update(alive)
            if not alive:
                break
            children_map = self._children(alive, stats)
            frontier = [child for node_id in alive for child in children_map[node_id]]
        stats.nodes_evaluated += len(touched)
        return zero_nodes, pruned, evaluations

    # -- candidate classification & verification -----------------------------------------------
    def _classify_candidates(self, outcome: LookupOutcome, point: int,
                             evaluations: Dict[Tuple[int, int], int],
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
        """Exact verification: recover each candidate's tag value (eq. (1)–(3))."""
        confirmed: List[int] = []
        rejected: List[int] = []
        if not candidates:
            return confirmed, rejected
        children_map, server_rows = self._verification_children(
            candidates, stats, constants_only=False)
        needed = sorted(set(candidates) | {
            child for node_id in candidates for child in children_map[node_id]})
        if server_rows is None:
            server_rows = self.server.fetch_polynomial_rows(needed)
            stats.round_trips += 1
            stats.polynomials_fetched += len(needed)
        values = self._recover_tags(candidates, children_map, needed,
                                    server_rows)
        for node_id, value in zip(candidates, values):
            stats.candidates_verified += 1
            if isinstance(value, TagRecoveryError):
                raise VerificationError(
                    f"node {node_id}: the server's polynomials are inconsistent "
                    "with the encoding invariant") from value
            (confirmed if value == point else rejected).append(node_id)
        return confirmed, rejected

    def _recover_tags(self, candidates: Sequence[int],
                      children_map: Dict[int, List[int]],
                      needed: Sequence[int],
                      server_rows: Dict[int, Sequence[int]]
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
            received = domain.coefficient_matrix(
                server_rows.values(),
                lambda row: ring.from_coefficients(row).coeffs)
            position = {node_id: index
                        for index, node_id in enumerate(server_rows)}
            server = received[[position[node_id] for node_id in needed]]
            client = domain.coefficient_matrix(
                [self.client_shares.share_for(node_id).coeffs
                 for node_id in needed])
            row_of = {node_id: index for index, node_id in enumerate(needed)}
            return domain.recover_tags(
                domain.transform((client + server) % domain.p),
                [row_of[node_id] for node_id in candidates],
                [[row_of[child] for child in children_map[node_id]]
                 for node_id in candidates])
        shares = {node_id: ring.from_coefficients(row)
                  for node_id, row in server_rows.items()}
        polynomials = {
            node_id: ring.add(self.client_shares.share_for(node_id),
                              shares[node_id])
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
        exactly whenever the product ``(x-t)·∏ q_i`` does not wrap around the
        ring modulus (small subtrees).  When it fails the node is reported as
        an *unverified candidate* — the trusted server is believed, but the
        reduced assurance is made visible to the caller.
        """
        confirmed: List[int] = []
        inconclusive: List[int] = []
        if not candidates:
            return confirmed, inconclusive
        children_map, bundled = self._verification_children(
            candidates, stats, constants_only=True)
        if bundled is None:
            needed = sorted(set(candidates) | {
                child for node_id in candidates for child in children_map[node_id]})
            server_constants = self.server.fetch_constants(needed)
            stats.round_trips += 1
            stats.constants_fetched += len(needed)
        else:
            server_constants = bundled
        ring = self.ring.coefficient_ring
        for node_id in candidates:
            stats.candidates_verified += 1
            node_constant = ring.add(
                self.client_shares.share_for(node_id).constant_term,
                server_constants[node_id])
            product = ring.one
            for child in children_map[node_id]:
                child_constant = ring.add(
                    self.client_shares.share_for(child).constant_term,
                    server_constants[child])
                product = ring.mul(product, child_constant)
            expected = ring.mul(ring.neg(ring.coerce(point)), product)
            if ring.eq(node_constant, expected):
                confirmed.append(node_id)
            else:
                inconclusive.append(node_id)
        return confirmed, inconclusive
