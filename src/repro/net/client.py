"""Client-side network stub: a :class:`ServerInterface` over a channel.

:class:`RemoteServerAdapter` turns the abstract requests of the query
engine into protocol messages, sends them through an
:class:`~repro.net.channel.InstrumentedChannel` and decodes the answers —
so every query run through it yields exact byte/round-trip measurements
(experiments E10/E13).

A session opens with the hello exchange: the client states every protocol
version it speaks, the server picks the highest common one (and throws a
loud error when there is none).  Version-2 sessions route whole descent
rounds through the batched :class:`~repro.net.messages.FrontierRequest`
and piggyback prune notices on the next outgoing request; version-1
sessions reproduce the original request-per-kind exchange byte for byte.
Every message is stamped with the session's document id, so one server —
and one channel — can serve many tenants.

Version-3 sessions can also *edit* the hosted document:
:class:`RemoteUpdatableTree` mirrors the
:class:`~repro.core.updates.UpdatableTree` API over the wire.  It keeps a
local structure mirror (:class:`_RemoteStoreMirror`) fed by the ordinary
read messages, computes every new share client-side exactly as the
in-process editor does, and pushes each operation as one
:class:`~repro.net.messages.UpdateRequest` batch.  When the server
answers with a :class:`~repro.net.messages.ConflictResponse` (another
writer touched an overlapping path first), the tree refetches the
conflicting state and transparently rebases — recomputing the operation
against the fresh state and resending — up to ``max_rebases`` times
before surfacing :class:`~repro.errors.UpdateConflictError`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..algebra.poly import Polynomial
from ..core.query import FrontierResult, ServerInterface
from ..core.share_tree import ServerShareTree
from ..core.updates import UpdatableTree
from ..errors import ProtocolError, SharingError, UpdateConflictError
from .channel import InstrumentedChannel, LatencyModel, SocketChannel
from .messages import (
    PACKED_FRONTIER_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    BlobRequest,
    BlobResponse,
    ChildrenRequest,
    ChildrenResponse,
    ConflictResponse,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    FetchConstantsRequest,
    FetchConstantsResponse,
    FetchPolynomialsRequest,
    FetchPolynomialsResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    HealthResponse,
    HelloRequest,
    HelloResponse,
    Message,
    PruneNotice,
    StatsRequest,
    StatsResponse,
    StructureRequest,
    StructureResponse,
    UpdateRequest,
    UpdateResponse,
    require_nodes,
)
from .server import SearchServer
from .store import ShareStore

__all__ = ["RemoteServerAdapter", "RemoteUpdatableTree", "connect",
           "connect_in_process", "connect_socket"]


class RemoteServerAdapter(ServerInterface):
    """A server proxy that speaks the wire protocol over a channel."""

    def __init__(self, channel: InstrumentedChannel, ring,
                 document_id: Optional[str] = None,
                 protocol_version: Optional[int] = None) -> None:
        self.channel = channel
        self.ring = ring
        self.document_id = document_id
        self._structure: Optional[Tuple[int, int]] = None
        self._pending_prune: List[int] = []
        if protocol_version is None:
            self.protocol_version = self._negotiate(SUPPORTED_PROTOCOL_VERSIONS)
        elif protocol_version == 1:
            # Legacy client: no hello exchange existed in protocol v1.
            self.protocol_version = 1
        else:
            self.protocol_version = self._negotiate([protocol_version])

    @property
    def batched_rounds(self) -> bool:
        """v2 sessions answer whole frontier rounds in one exchange."""
        return self.protocol_version >= 2

    # -- session management ---------------------------------------------------------
    def _negotiate(self, versions: Sequence[int]) -> int:
        """The hello exchange; also caches the structure summary it returns."""
        response = self._request(HelloRequest(versions), HelloResponse)
        if response.version not in versions:
            raise ProtocolError(
                f"server negotiated protocol version {response.version}, which "
                f"this client did not offer ({list(versions)})")
        if response.root_id is not None:
            self._structure = (response.root_id, response.node_count)
        return response.version

    def _request(self, message: Message, expected: type) -> Message:
        if self.document_id is not None:
            message.for_document(self.document_id)
        response = self.channel.request(message)
        if not isinstance(response, expected):
            raise ProtocolError(f"unexpected response {response.kind!r}")
        return response

    def _structure_summary(self) -> Tuple[int, int]:
        if self._structure is None:
            response = self._request(StructureRequest(), StructureResponse)
            self._structure = (response.root_id, response.node_count)
        return self._structure

    def _take_prunes(self) -> List[int]:
        pending, self._pending_prune = self._pending_prune, []
        return pending

    # -- ServerInterface -----------------------------------------------------------
    def root_id(self) -> int:
        return self._structure_summary()[0]

    def node_count(self) -> int:
        return self._structure_summary()[1]

    def children_of(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        response = self._request(ChildrenRequest(node_ids), ChildrenResponse)
        require_nodes(response.children, node_ids, "child list")
        return response.children

    def evaluate(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        response = self._request(EvaluateRequest(node_ids, point), EvaluateResponse)
        require_nodes(response.values, node_ids, f"evaluation at point {point}")
        return response.values

    def fetch_polynomials(self, node_ids: Sequence[int]) -> Dict[int, Polynomial]:
        return {node_id: self.ring.from_coefficients(row)
                for node_id, row in self.fetch_polynomial_rows(node_ids).items()}

    def fetch_polynomial_rows(self, node_ids: Sequence[int]
                              ) -> Mapping[int, Sequence[int]]:
        """The decoded coefficient rows, with no polynomial per node."""
        if self.protocol_version >= 2:
            rows = self._frontier(fetch_polynomials=node_ids).polynomials
        else:
            rows = self._request(FetchPolynomialsRequest(node_ids),
                                 FetchPolynomialsResponse).coefficients
        require_nodes(rows, node_ids, "share row")
        return rows

    def fetch_constants(self, node_ids: Sequence[int]) -> Dict[int, int]:
        if self.protocol_version >= 2:
            constants = self._frontier(fetch_constants=node_ids).constants
        else:
            constants = self._request(FetchConstantsRequest(node_ids),
                                      FetchConstantsResponse).constants
        require_nodes(constants, node_ids, "constant")
        return constants

    def prune(self, node_ids: Sequence[int]) -> None:
        if self.protocol_version >= 2:
            # Buffered: the ids ride along with the next v2 request.
            self._pending_prune.extend(node_ids)
            return
        self._request(PruneNotice(node_ids), Message)

    def flush_prunes(self) -> int:
        if not self._pending_prune:
            return 0
        self._request(PruneNotice(self._take_prunes()), Message)
        return 1

    # -- batched protocol ------------------------------------------------------------
    def _frontier(self, node_ids: Sequence[int] = (), points: Sequence[int] = (),
                  include_children: bool = False,
                  fetch_polynomials: Sequence[int] = (),
                  fetch_constants: Sequence[int] = (),
                  lookahead: int = 0) -> FrontierResponse:
        request = FrontierRequest(
            node_ids, points, prune=self._take_prunes(),
            include_children=include_children,
            fetch_polynomials=fetch_polynomials,
            fetch_constants=fetch_constants, lookahead=lookahead,
            packed=self.protocol_version >= PACKED_FRONTIER_VERSION)
        return self._request(request, FrontierResponse)

    def frontier_round(self, node_ids: Sequence[int], points: Sequence[int],
                       prune: Sequence[int] = (), include_children: bool = True,
                       lookahead: int = 0) -> FrontierResult:
        if self.protocol_version < 2:
            return super().frontier_round(node_ids, points, prune=prune,
                                          include_children=include_children)
        self._pending_prune.extend(prune)
        response = self._frontier(node_ids, points,
                                  include_children=include_children,
                                  lookahead=lookahead)
        return FrontierResult(response.checked_evaluations(node_ids, points),
                              response.children, round_trips=1)

    def verification_bundle(self, node_ids: Sequence[int],
                            constants_only: bool = False
                            ) -> Tuple[Dict[int, List[int]], Mapping[int, object], int]:
        if self.protocol_version < 2:
            return super().verification_bundle(node_ids,
                                               constants_only=constants_only)
        if constants_only:
            response = self._frontier(include_children=True,
                                      fetch_constants=node_ids)
        else:
            response = self._frontier(include_children=True,
                                      fetch_polynomials=node_ids)
        children, data = response.checked_closure(node_ids, constants_only)
        return children, data, 1

    # -- v3 updates -----------------------------------------------------------------
    def apply_update(self, request: UpdateRequest) -> UpdateResponse:
        """Send one v3 update batch; returns the commit confirmation.

        A :class:`~repro.net.messages.ConflictResponse` surfaces as
        :class:`~repro.errors.UpdateConflictError` (carrying the
        conflicting ids and their current versions); an in-band error
        frame as :class:`~repro.errors.ProtocolError` — matching what the
        in-process channel would have raised, so both transports behave
        identically.
        """
        if self.protocol_version < 3:
            raise ProtocolError(
                f"remote updates need protocol v3; this session negotiated "
                f"v{self.protocol_version}")
        response = self._request(request, Message)
        if isinstance(response, ErrorResponse):
            raise ProtocolError(response.error)
        if isinstance(response, ConflictResponse):
            raise UpdateConflictError(
                f"update batch rejected: nodes {response.conflicts} changed "
                "under this client (refetch and rebase)",
                conflicts=response.conflicts, versions=response.versions)
        if not isinstance(response, UpdateResponse):
            raise ProtocolError(f"unexpected response {response.kind!r}")
        return response

    # -- v3 control plane ------------------------------------------------------------
    def server_stats(self) -> Dict[str, object]:
        """Fetch the server's metrics snapshot (v3 ``stats`` probe).

        When this session is bound to a document, the server filters the
        snapshot to instruments without a document label plus those
        belonging to that document, and includes the tenant's admission
        ledger — one tenant cannot read another's traffic.
        """
        if self.protocol_version < 3:
            raise ProtocolError(
                f"the stats probe needs protocol v3; this session "
                f"negotiated v{self.protocol_version}")
        response = self._request(StatsRequest(), StatsResponse)
        return response.metrics

    def server_health(self) -> Dict[str, object]:
        """Fetch the server's health summary (v3 ``health`` probe)."""
        if self.protocol_version < 3:
            raise ProtocolError(
                f"the health probe needs protocol v3; this session "
                f"negotiated v{self.protocol_version}")
        response = self._request(HealthRequest(), HealthResponse)
        summary: Dict[str, object] = {"status": response.status}
        summary.update(response.detail)
        return summary

    # -- extras used by baselines -------------------------------------------------------
    def download_blob(self) -> bytes:
        """Fetch the server's whole encrypted blob (download-all baseline)."""
        response = self._request(BlobRequest(), BlobResponse)
        return response.blob


class _RemoteStoreMirror(ShareStore):
    """A client-side :class:`~repro.net.store.ShareStore` view of a hosted document.

    Reads are served from a locally mirrored structure (built with the
    ordinary ``children`` messages) and a lazily fetched share cache, so
    the in-process update planner can run against it unchanged.  Writes
    only exist as whole batches: :meth:`apply_batch` — the hook a
    :class:`~repro.net.store.StoreTransaction` commits through — turns
    the buffered ops into one :class:`~repro.net.messages.UpdateRequest`,
    sends it, and folds the committed batch into the mirror.  The mirror
    also tracks the per-node versions the server reported, which become
    the ``base_versions`` vector of the next batch.
    """

    #: Node ids per children/fetch request while mirroring structure.
    CHUNK = 4096

    def __init__(self, server: "RemoteServerAdapter") -> None:
        self.server = server
        self.ring = server.ring
        #: Last server-confirmed version per node (absent = 0).
        self.versions: Dict[int, int] = {}
        #: Label stamped on the next update batch (set by the editor).
        self.operation = "batch"
        self._parents: Dict[int, Optional[int]] = {}
        self._children: Dict[int, List[int]] = {}
        self._root: Optional[int] = None
        self._shares: Dict[int, Polynomial] = {}
        self.refresh()

    # -- mirroring ------------------------------------------------------------------
    def refresh(self) -> None:
        """Re-mirror the whole public structure and drop the share cache.

        Called at construction and after every conflict: anything another
        writer may have changed (structure and shares alike) is refetched
        on demand against the server's current state.  Confirmed versions
        are kept — they are what the server told us, not what we cached.
        """
        parents: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {}
        root = self.server.root_id()
        parents[root] = None
        frontier = [root]
        while frontier:
            chunk, frontier = frontier[:self.CHUNK], frontier[self.CHUNK:]
            for node_id, child_ids in self.server.children_of(chunk).items():
                children[node_id] = list(child_ids)
                for child in child_ids:
                    parents[child] = node_id
                frontier.extend(child_ids)
        self._parents = parents
        self._children = children
        self._root = root
        self._shares = {}
        self.versions = {nid: v for nid, v in self.versions.items()
                         if nid in parents}

    def prefetch(self, node_ids: Sequence[int]) -> None:
        """Bulk-fetch the shares of these nodes into the cache (one pass)."""
        missing = sorted({int(n) for n in node_ids
                          if n not in self._shares and n in self._parents})
        while missing:
            chunk, missing = missing[:self.CHUNK], missing[self.CHUNK:]
            self._shares.update(self._fetch_shares(chunk))

    def _fetch_shares(self, node_ids: Sequence[int]) -> Dict[int, Polynomial]:
        """Fetch shares the mirror believes exist; staleness is a conflict.

        A server that refuses to serve a share for a node the mirrored
        structure still contains means another writer removed it since the
        mirror was built — the *read-side* face of a version conflict, so
        it raises :class:`~repro.errors.UpdateConflictError` and the
        editor's rebase loop re-mirrors and retries.  Transport-level and
        transient failures keep their own types (a resilient channel
        handles those below us).
        """
        from ..errors import (
            RetryExhaustedError,
            TransientServerError,
            TransportError,
        )
        try:
            return self.server.fetch_polynomials(node_ids)
        except (TransportError, TransientServerError, RetryExhaustedError,
                UpdateConflictError):
            raise
        except (SharingError, ProtocolError) as exc:
            raise UpdateConflictError(
                f"the hosted document changed under this client while "
                f"fetching shares ({exc}); refetch and rebase",
                conflicts=[n for n in node_ids]) from exc

    # -- read side (served from the mirror) -------------------------------------------
    @property
    def root_id(self) -> Optional[int]:
        return self._root

    def node_count(self) -> int:
        return len(self._parents)

    def node_ids(self) -> List[int]:
        return sorted(self._parents)

    def child_ids(self, node_id: int) -> List[int]:
        try:
            return list(self._children[node_id])
        except KeyError:
            raise SharingError(f"unknown node id {node_id}") from None

    def parent_id(self, node_id: int) -> Optional[int]:
        try:
            return self._parents[node_id]
        except KeyError:
            raise SharingError(f"unknown node id {node_id}") from None

    def share_of(self, node_id: int) -> Polynomial:
        share = self._shares.get(node_id)
        if share is None:
            if node_id not in self._parents:
                raise SharingError(f"unknown node id {node_id}")
            share = self._fetch_shares([node_id])[node_id]
            self._shares[node_id] = share
        return share

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._parents

    # -- write side (whole batches only) ----------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        raise ProtocolError(
            "a remote store applies mutations as whole update batches; "
            "use a transaction()")

    replace_share = add_node
    remove_subtree = add_node  # type: ignore[assignment]

    def apply_batch(self, ops: Sequence[tuple]) -> None:
        """Ship one recorded batch as an UpdateRequest and commit the mirror.

        The base versions the batch rode on cover its full write set: the
        replaced nodes (which include every rewritten ancestor up to the
        root), the removal targets, and the pre-existing parents of added
        nodes — so the server's check catches *any* concurrent writer,
        whose own ancestor rewrites necessarily overlap at those nodes.
        Raises :class:`~repro.errors.UpdateConflictError` (nothing
        applied, mirror untouched) when the batch lost such a race.
        """
        wire_ops: List[List[object]] = []
        added: set = set()
        base_ids: set = set()
        for op in ops:
            if op[0] == "add":
                _, node_id, parent_id, share = op
                wire_ops.append(["add", node_id, parent_id,
                                 [int(c) for c in share.coeffs]])
                if parent_id is not None and parent_id not in added:
                    base_ids.add(parent_id)
                added.add(node_id)
            elif op[0] == "replace":
                _, node_id, share = op
                wire_ops.append(["replace", node_id,
                                 [int(c) for c in share.coeffs]])
                if node_id not in added:
                    base_ids.add(node_id)
            else:
                _, node_id, expected = op
                wire_ops.append(["remove", node_id, list(expected)])
                base_ids.add(node_id)
        base = {nid: self.versions.get(nid, 0) for nid in sorted(base_ids)}
        request = UpdateRequest(self.operation, wire_ops, base)
        response = self.server.apply_update(request)

        # Committed server-side: fold the batch into the mirror so the
        # next operation plans against the post-batch state.
        for op in ops:
            if op[0] == "add":
                _, node_id, parent_id, share = op
                self._parents[node_id] = parent_id
                self._children[node_id] = []
                if parent_id is None:
                    self._root = node_id
                else:
                    self._children[parent_id].append(node_id)
                self._shares[node_id] = share
            elif op[0] == "replace":
                _, node_id, share = op
                self._shares[node_id] = share
            else:
                _, node_id, removed = op
                parent = self._parents.get(node_id)
                if parent is not None and node_id in self._children.get(parent, ()):
                    self._children[parent].remove(node_id)
                for removed_id in removed:
                    self._parents.pop(removed_id, None)
                    self._children.pop(removed_id, None)
                    self._shares.pop(removed_id, None)
                    self.versions.pop(removed_id, None)
        self.versions.update(response.versions)

    def __repr__(self) -> str:
        return (f"<_RemoteStoreMirror nodes={len(self._parents)} "
                f"cached_shares={len(self._shares)}>")


class RemoteUpdatableTree(UpdatableTree):
    """Edit a hosted document over the wire with transparent rebase.

    The full :class:`~repro.core.updates.UpdatableTree` API — insert,
    delete, rename, share refresh — against a v3 session
    (:class:`RemoteServerAdapter` or the resilient subclass from
    :mod:`repro.net.retry`, so reconnect/replay under faults comes for
    free).  Each operation plans against a local mirror of the hosted
    document, then commits as **one** idempotent
    :class:`~repro.net.messages.UpdateRequest`.  When the server reports
    a version conflict, the tree merges the reported versions, re-mirrors
    the document, recomputes the operation against the fresh state and
    resends — up to ``max_rebases`` times.  The conflict only surfaces as
    :class:`~repro.errors.UpdateConflictError` when the operation's
    anchor node was removed by another writer (the operation is
    meaningless now) or the rebase budget is spent.
    """

    def __init__(self, server: RemoteServerAdapter, mapping, client_shares,
                 max_rebases: int = 4) -> None:
        if server.protocol_version < 3:
            raise ProtocolError(
                f"remote editing needs protocol v3; this session negotiated "
                f"v{server.protocol_version}")
        self.server = server
        self.mirror = _RemoteStoreMirror(server)
        #: Conflict rounds one operation may absorb before giving up.
        self.max_rebases = int(max_rebases)
        #: Total rebase rounds performed over this tree's lifetime.
        self.rebases = 0
        super().__init__(server.ring, mapping, client_shares, self.mirror)

    # -- rebase loop ------------------------------------------------------------------
    def _run_rebasing(self, operation: str, anchor_ids: Sequence[int],
                      attempt):
        self.mirror.operation = operation
        remaining = self.max_rebases
        while True:
            try:
                return attempt()
            except UpdateConflictError as exc:
                if remaining <= 0:
                    raise
                remaining -= 1
                self.rebases += 1
                self.mirror.versions.update(exc.versions)
                self.mirror.refresh()
                gone = [nid for nid in anchor_ids if nid not in self.mirror]
                if gone:
                    raise UpdateConflictError(
                        f"cannot rebase {operation!r}: nodes {gone} were "
                        "removed by another writer",
                        conflicts=exc.conflicts, versions=exc.versions
                    ) from exc

    def _prefetch_paths(self, node_ids: Sequence[int],
                        with_children: bool = False) -> None:
        """Warm the share cache for the nodes an operation will read.

        ``with_children`` additionally pulls every child of every path
        node — what tag recovery (Theorem 1/2) reads — so a whole
        operation costs O(1) fetch round trips instead of one per share.
        """
        wanted: List[int] = []
        for node_id in node_ids:
            if node_id not in self.mirror:
                return          # let the operation raise its usual error
            path = [node_id] + [*self._mirror_ancestors(node_id)]
            wanted.extend(path)
            if with_children:
                for member in path:
                    wanted.extend(self.mirror.child_ids(member))
        self.mirror.prefetch(wanted)

    def _mirror_ancestors(self, node_id: int) -> List[int]:
        path: List[int] = []
        current = self.mirror.parent_id(node_id)
        while current is not None:
            path.append(current)
            current = self.mirror.parent_id(current)
        return path

    # -- public operations (wire-committed, rebase on conflict) -----------------------
    def insert_subtree(self, parent_id: int, element) -> "UpdateReport":
        """Insert a plaintext subtree under ``parent_id`` on the server."""
        def attempt():
            self._prefetch_paths([parent_id])
            return UpdatableTree.insert_subtree(self, parent_id, element)
        return self._run_rebasing("insert", [parent_id], attempt)

    def delete_subtree(self, node_id: int) -> "UpdateReport":
        """Delete the subtree rooted at ``node_id`` on the server."""
        def attempt():
            parent = (self.mirror.parent_id(node_id)
                      if node_id in self.mirror else None)
            if parent is not None:
                self._prefetch_paths([parent], with_children=True)
            return UpdatableTree.delete_subtree(self, node_id)
        return self._run_rebasing("delete", [node_id], attempt)

    def rename_node(self, node_id: int, new_tag: str) -> "UpdateReport":
        """Rename ``node_id`` to ``new_tag`` on the server."""
        def attempt():
            self._prefetch_paths([node_id], with_children=True)
            return UpdatableTree.rename_node(self, node_id, new_tag)
        return self._run_rebasing("rename", [node_id], attempt)

    def refresh_shares(self, new_generator) -> "UpdateReport":
        """Re-randomise every share on the server under a new client seed."""
        def attempt():
            self.mirror.prefetch(self.mirror.node_ids())
            return UpdatableTree.refresh_shares(self, new_generator)
        return self._run_rebasing("refresh", [], attempt)


def connect(server: SearchServer, document_id: Optional[str] = None,
            latency_model: Optional[LatencyModel] = None,
            protocol_version: Optional[int] = None
            ) -> Tuple[RemoteServerAdapter, InstrumentedChannel]:
    """Open a fresh instrumented session against a (multi-document) server.

    Each call is one client session with its own channel, so byte and
    round-trip totals are accounted per session — N concurrent tenants get
    N independent :class:`~repro.net.channel.ChannelStats`.
    """
    channel = InstrumentedChannel(server.handle, latency_model=latency_model)
    document = server.registry.resolve(document_id)
    adapter = RemoteServerAdapter(channel, document.store.ring,
                                  document_id=document_id,
                                  protocol_version=protocol_version)
    return adapter, channel


def connect_socket(host: str, port: int, ring,
                   document_id: Optional[str] = None,
                   latency_model: Optional[LatencyModel] = None,
                   protocol_version: Optional[int] = None,
                   timeout_s: Optional[float] = 30.0
                   ) -> Tuple[RemoteServerAdapter, SocketChannel]:
    """Open a synchronous session against a *socket* server.

    This is the sync adapter for the socket transports: the returned
    :class:`RemoteServerAdapter` is the same object in-process callers
    use, so any existing :class:`~repro.core.query.QueryEngine` /
    :class:`~repro.core.ClientContext` code runs over a real TCP
    connection unchanged — against either the threaded
    :class:`~repro.net.server.ThreadedSearchServer` or the asyncio
    :class:`~repro.net.aio.AsyncSearchServer` (both speak the same
    frames).  Callers should ``channel.close()`` when done.
    """
    channel = SocketChannel(host, port, latency_model=latency_model,
                            timeout_s=timeout_s)
    try:
        adapter = RemoteServerAdapter(channel, ring, document_id=document_id,
                                      protocol_version=protocol_version)
    except BaseException:
        # HELLO negotiation (or its first framed read) failed: the caller
        # never sees the channel, so it must be closed here or the socket
        # leaks.
        channel.close()
        raise
    return adapter, channel


def connect_in_process(share_tree: Union[ServerShareTree, ShareStore],
                       encrypted_blob: Optional[bytes] = None,
                       latency_model: Optional[LatencyModel] = None,
                       protocol_version: Optional[int] = None
                       ) -> tuple:
    """Wire a server and a remote adapter through an instrumented channel.

    Returns ``(adapter, server, channel)``; the adapter plugs straight into
    :class:`repro.core.query.QueryEngine` / :class:`repro.core.ClientContext`.
    ``protocol_version`` forces a wire generation (``1`` reproduces the
    original per-request protocol, hello-free); by default the session
    negotiates the newest one.
    """
    server = SearchServer(share_tree, encrypted_blob=encrypted_blob)
    channel = InstrumentedChannel(server.handle, latency_model=latency_model)
    adapter = RemoteServerAdapter(channel, server.document().store.ring,
                                  protocol_version=protocol_version)
    return adapter, server, channel
