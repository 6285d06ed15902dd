"""Instrumented client/server transport: protocol messages (v1, batched
v2, update-capable v3, packed-payload v4), byte-counting channels (in-process and real
sockets), length-prefixed framing, the transport-agnostic serving core
with multi-document tenancy, admission control, idempotent replay and
version-checked update batches, pluggable share-store backends, the
sync/threaded and asyncio socket servers, the client-side proxies
(including the remote editor with conflict rebase), and the
fault-tolerance layer (deterministic fault injection plus the retrying,
reconnecting resilient client).  All layers account through the shared
observability registry (:mod:`repro.obs`): transports, the serving core,
the retry stack and the stores emit into one
:class:`~repro.obs.MetricsRegistry`, surfaced in-band by the v3
``stats``/``health`` probes and out-of-band by the plaintext scrape
endpoint."""

from .aio import (
    AsyncSearchServer,
    AsyncServerHandle,
    AsyncServerInterface,
    start_async_server,
)
from .channel import ChannelStats, InstrumentedChannel, LatencyModel, SocketChannel
from .client import (
    RemoteServerAdapter,
    RemoteUpdatableTree,
    connect,
    connect_in_process,
    connect_socket,
)
from .engine import (
    DEFAULT_DOCUMENT,
    DocumentRegistry,
    HostedDocument,
    ServingCore,
)
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    FaultyChannel,
    FaultyStore,
    flaky_handler,
)
from .framing import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameAssembler,
    decode_frame_length,
    encode_frame,
)
from .messages import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    BusyResponse,
    ConflictResponse,
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    Message,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    decode_message,
)
from .retry import (
    ResilientChannel,
    ResilientServerInterface,
    RetryPolicy,
    connect_resilient,
    connect_resilient_socket,
)
from .server import SearchServer, ServerObservations, ThreadedSearchServer
from .storage import (
    InMemoryServerStore,
    load_share_tree,
    ring_from_dict,
    ring_to_dict,
    save_share_tree,
    share_tree_from_dict,
    share_tree_to_dict,
)
from .store import (
    InMemoryShareStore,
    ShareStore,
    SQLiteShareStore,
    StoreTransaction,
    as_share_store,
    migrate_share_store,
    open_share_store,
    write_v1_share_store,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "Message",
    "BusyResponse",
    "ErrorResponse",
    "UpdateRequest",
    "UpdateResponse",
    "ConflictResponse",
    "StatsRequest",
    "StatsResponse",
    "HealthRequest",
    "HealthResponse",
    "decode_message",
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "FaultyChannel",
    "FaultyStore",
    "flaky_handler",
    "RetryPolicy",
    "ResilientChannel",
    "ResilientServerInterface",
    "connect_resilient",
    "connect_resilient_socket",
    "ChannelStats",
    "LatencyModel",
    "InstrumentedChannel",
    "SocketChannel",
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "FrameAssembler",
    "encode_frame",
    "decode_frame_length",
    "SearchServer",
    "ServerObservations",
    "ThreadedSearchServer",
    "AsyncSearchServer",
    "AsyncServerInterface",
    "AsyncServerHandle",
    "start_async_server",
    "RemoteServerAdapter",
    "RemoteUpdatableTree",
    "connect",
    "connect_in_process",
    "connect_socket",
    "DEFAULT_DOCUMENT",
    "DocumentRegistry",
    "HostedDocument",
    "ServingCore",
    "ShareStore",
    "StoreTransaction",
    "InMemoryShareStore",
    "SQLiteShareStore",
    "as_share_store",
    "open_share_store",
    "migrate_share_store",
    "write_v1_share_store",
    "InMemoryServerStore",
    "ring_to_dict",
    "ring_from_dict",
    "share_tree_to_dict",
    "share_tree_from_dict",
    "save_share_tree",
    "load_share_tree",
]
