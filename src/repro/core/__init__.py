"""The paper's core contribution: polynomial-tree encoding of XML, additive
client/server sharing, and the interactive search protocol with dead-branch
pruning and answer verification."""

from .advanced import AdvancedQueryExecutor, AdvancedQueryResult, AdvancedStrategy
from .encoder import PolynomialNode, PolynomialTree, encode_document, encode_element
from .mapping import TagMapping
from .query import (
    FrontierResult,
    LocalServerAdapter,
    LookupOutcome,
    QueryEngine,
    QueryStats,
    ServerInterface,
    ServerObservations,
    VerificationMode,
)
from .reconstruct import (
    decode_tree,
    recover_all_tag_values,
    recover_tag_value,
    verify_node_claim,
)
from .multiserver import ThresholdServerGroup, outsource_document_multi_server
from .scheme import ClientContext, choose_fp_ring, choose_int_ring, outsource_document
from .share_tree import (
    ClientShareGenerator,
    ServerShareTree,
    ShareStore,
    TreeStructure,
    reconstruct_tree,
    share_tree,
)
from .text_index import (
    ContentIndexBuilder,
    ContentSearchClient,
    EncryptedContentStore,
    KeywordHasher,
    KeywordSearchResult,
    tokenize,
)
from .updates import UpdatableTree, UpdateReport

__all__ = [
    "TagMapping",
    "PolynomialNode",
    "PolynomialTree",
    "encode_document",
    "encode_element",
    "decode_tree",
    "recover_tag_value",
    "recover_all_tag_values",
    "verify_node_claim",
    "ClientShareGenerator",
    "ServerShareTree",
    "ShareStore",
    "TreeStructure",
    "share_tree",
    "reconstruct_tree",
    "QueryEngine",
    "QueryStats",
    "FrontierResult",
    "LookupOutcome",
    "LocalServerAdapter",
    "ServerInterface",
    "ServerObservations",
    "VerificationMode",
    "AdvancedQueryExecutor",
    "AdvancedQueryResult",
    "AdvancedStrategy",
    "ClientContext",
    "choose_fp_ring",
    "choose_int_ring",
    "outsource_document",
    "ThresholdServerGroup",
    "outsource_document_multi_server",
    "UpdatableTree",
    "UpdateReport",
    "tokenize",
    "KeywordHasher",
    "EncryptedContentStore",
    "ContentIndexBuilder",
    "ContentSearchClient",
    "KeywordSearchResult",
]
