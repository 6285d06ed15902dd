"""Outsourcing in evaluation form against the per-node reference path.

On the vectorized tier a large enough document is encoded in evaluation
form (Lemma 1: evaluation at the ``p - 1`` nonzero points is a ring
isomorphism, so §4.1's products are pointwise), split into shares as
arrays and written to the durable store from one share block.  Under
``use_vector_kernels(False)`` the same document takes today's per-node
``ring.mul``/``ring.sub`` path, which stays the reference.  These tests
hold the two to equal plaintext polynomials, equal server shares,
byte-identical ``from_tree`` files and equal ``share_tree_to_dict`` forms,
on documents that put the level-by-level products at their edges: a
deep chain and a root with thousands of children.  They also check the
inverse transform, that a row-backed tree answers every read exactly as
a materialised one (concurrent readers included), and that outsourcing
leaves the client's share cache as warm on both paths.
"""

import copy
import pickle
import random
import threading

import pytest

from repro.algebra import FpQuotientRing, use_vector_kernels
from repro.algebra.vkernels import numpy_or_none
from repro.core import LocalServerAdapter, VerificationMode, outsource_document
from repro.core import encoder as encoder_module
from repro.core.encoder import (
    EVALUATION_MAX_POINTS,
    EVALUATION_MIN_COEFFS,
    encode_document,
)
from repro.core.mapping import TagMapping
from repro.net import SQLiteShareStore
from repro.net.storage import share_tree_to_dict
from repro.workloads import RandomXmlConfig, figure1_document, generate_random_document
from repro.xmltree import XmlDocument, XmlElement

np = numpy_or_none()
numpy_present = pytest.mark.skipif(np is None, reason="the array path needs numpy")


def random_document(elements, seed, tags=40, depth=10):
    return generate_random_document(RandomXmlConfig(
        element_count=elements, tag_vocabulary_size=tags, tag_skew=1.4,
        max_depth=depth, seed=seed))


def chain_document(length, tags=12):
    root = node = XmlElement("t0")
    for index in range(1, length):
        node = node.add(f"t{index % tags}")
    return XmlDocument(root)


def wide_document(children, tags=30):
    root = XmlElement("root")
    for index in range(children):
        root.add(f"leaf{index % tags}")
    return XmlDocument(root)


#: (name, document factory, prime or None for the scheme's choice).
DOCUMENTS = [
    ("figure-1", lambda: figure1_document(clients=3), None),
    ("random-p53", lambda: random_document(2000, 1), 53),
    ("random-p251", lambda: random_document(700, 2, tags=120), 251),
    ("random-p1021", lambda: random_document(300, 3, tags=200), 1021),
    ("deep-chain", lambda: chain_document(900), 53),
    ("wide-root", lambda: wide_document(4000), 53),
]


def outsource(document, p, vectorized):
    """``outsource_document`` with a fixed seed and mapping on one tier."""
    ring = FpQuotientRing(p) if p is not None else None
    with use_vector_kernels(vectorized):
        return outsource_document(document, ring=ring, seed=b"forms",
                                  mapping_rng=random.Random(7))


def row_backed_expected(document, p):
    """Whether the vectorized tier encodes ``document`` in evaluation form."""
    if np is None or p is None:
        return False
    return (p - 1 <= EVALUATION_MAX_POINTS
            and document.size() * (p - 1) >= EVALUATION_MIN_COEFFS)


@pytest.fixture(scope="module", params=DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
def both_paths(request):
    """The same document outsourced on the vectorized tier and per node."""
    _, factory, p = request.param
    document = factory()
    fast = outsource(document, p, True)
    reference = outsource(document, p, False)
    return document, p, fast, reference


class TestBothPathsAgree:
    def test_the_array_path_runs_above_the_crossover(self, both_paths):
        document, p, fast, reference = both_paths
        _, fast_server, fast_tree = fast
        # Read before anything below builds the node objects.
        assert (fast_tree.row_form() is not None) == row_backed_expected(document, p)
        assert (fast_server.share_rows() is not None) == row_backed_expected(document, p)
        assert reference[2].row_form() is None
        assert reference[1].share_rows() is None

    def test_equal_plaintext_polynomials(self, both_paths):
        _, _, (_, _, fast_tree), (_, _, reference_tree) = both_paths
        assert len(fast_tree) == len(reference_tree)
        assert all(fast_tree.polynomial(node_id) == reference_tree.polynomial(node_id)
                   for node_id in reference_tree.node_ids())

    def test_equal_server_shares(self, both_paths):
        _, _, (_, fast_server, _), (_, reference_server, _) = both_paths
        assert fast_server.node_ids() == reference_server.node_ids()
        assert all(fast_server.share_of(node_id) == reference_server.share_of(node_id)
                   for node_id in reference_server.node_ids())

    def test_byte_identical_store_files(self, both_paths, tmp_path):
        _, _, (_, fast_server, _), (_, reference_server, _) = both_paths
        for page_bytes in (4096, 24):
            files = []
            for name, server in (("fast", fast_server), ("reference", reference_server)):
                path = tmp_path / f"{name}-{page_bytes}.db"
                SQLiteShareStore.from_tree(str(path), server,
                                           page_bytes=page_bytes).close()
                files.append(path.read_bytes())
            assert files[0] == files[1]

    def test_equal_share_tree_dicts(self, both_paths):
        _, _, (_, fast_server, _), (_, reference_server, _) = both_paths
        assert share_tree_to_dict(fast_server) == \
            share_tree_to_dict(reference_server)

    def test_client_cache_holds_the_same_ids(self, both_paths):
        document, _, (fast_client, _, _), (reference_client, _, _) = both_paths
        fast_cache = fast_client.share_generator._cache
        reference_cache = reference_client.share_generator._cache
        assert len(fast_cache) == min(document.size(),
                                      fast_client.share_generator.cache_size)
        assert list(fast_cache._order) == list(reference_cache._order)


@numpy_present
class TestInverseTransform:
    @pytest.mark.parametrize("p", [3, 5, 53, 251, 1021, 2039])
    def test_round_trip_on_random_canonical_blocks(self, p):
        domain = FpQuotientRing(p).evaluation_domain()
        rng = np.random.default_rng(p)
        rows = rng.integers(0, p, size=(200, p - 1), dtype=np.int64)
        rows[0] = 0
        rows[1] = p - 1
        rows[2, 1:] = 0
        assert (domain.inverse_transform(domain.transform(rows)) == rows).all()
        values = rng.integers(0, p, size=(50, p - 1), dtype=np.int64)
        assert (domain.transform(domain.inverse_transform(values)) == values).all()


@numpy_present
class TestSegmentProducts:
    def test_runs_of_every_length(self):
        p = 53
        rng = np.random.default_rng(0)
        lengths = [1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 1, 100, 2]
        rows = rng.integers(1, p, size=(sum(lengths), p - 1), dtype=np.int64)
        heads = np.cumsum([0] + lengths[:-1])
        expected = []
        for head, length in zip(heads, lengths):
            product = np.ones(p - 1, dtype=np.int64)
            for row in rows[head:head + length]:
                product = product * row % p
            expected.append(product)
        got = encoder_module._segment_products(rows.copy(), heads, p)
        assert (got == np.array(expected)).all()


@numpy_present
class TestRowBackedTrees:
    """A row-backed tree reads exactly as a materialised one."""

    @pytest.fixture()
    def pair(self):
        document = random_document(1500, 11, tags=30)
        fast = outsource(document, 53, True)
        reference = outsource(document, 53, False)
        assert fast[2].row_form() is not None
        return fast, reference

    def test_plaintext_tree_reads(self, pair):
        (_, _, tree), (_, _, reference) = pair
        assert len(tree) == len(reference)
        assert tree.row_form() is not None         # len builds nothing
        assert repr(tree) == repr(reference)
        assert tree.root_id == reference.root_id == 0
        assert tree.root().polynomial == reference.root().polynomial
        assert tree.structure() == reference.structure()
        assert tree.node_ids() == reference.node_ids()
        assert tree.subtree_ids(5) == reference.subtree_ids(5)
        assert tree.storage_bits() == reference.storage_bits()
        for left, right in zip(tree.iter_preorder(), reference.iter_preorder()):
            assert (left.node_id, left.parent_id, left.child_ids, left.depth,
                    left.polynomial) == (right.node_id, right.parent_id,
                                         right.child_ids, right.depth,
                                         right.polynomial)
        assert ([node.node_id for node in tree.iter_postorder()]
                == [node.node_id for node in reference.iter_postorder()])
        for node_id in (0, 1, 17, len(tree) - 1):
            assert tree.depth_of(node_id) == reference.depth_of(node_id)
            assert ([child.node_id for child in tree.children(node_id)]
                    == [child.node_id for child in reference.children(node_id)])
            parent = tree.parent(node_id)
            expected = reference.parent(node_id)
            assert (parent and parent.node_id) == (expected and expected.node_id)

    def test_server_tree_reads(self, pair):
        (_, server, _), (_, reference, _) = pair
        for read in ("node_ids", "max_node_id", "node_count", "__len__"):
            assert getattr(server, read)() == getattr(reference, read)()
        assert server.child_ids(0) == reference.child_ids(0)
        assert server.parent_id(9) == reference.parent_id(9)
        assert server.depth_of(9) == reference.depth_of(9)
        assert 9 in server and 10 ** 6 not in server
        assert server.share_rows() is not None     # structure reads build nothing
        assert repr(server) == repr(reference)
        assert server.evaluate(3, 5) == reference.evaluate(3, 5)
        ids = list(range(0, len(reference), 7))
        assert server.evaluate_many(ids, 11) == reference.evaluate_many(ids, 11)
        assert server.storage_bits() == reference.storage_bits()
        assert server.shares == reference.shares
        assert server.share_rows() is None

    def test_mutations_after_a_lazy_start_land(self, pair):
        (_, server, tree), (_, reference, reference_tree) = pair
        ring = server.ring
        share = ring.from_tag_value(4)
        for target in (server, reference):
            target.replace_share(3, share)
            target.add_node(len(reference_tree), 3, share)
            target.remove_subtree(1)
        assert server.shares == reference.shares
        assert server.node_ids() == reference.node_ids()
        tree.add_node(len(reference_tree), 0, share, 1)
        reference_tree.add_node(len(reference_tree), 0, share, 1)
        assert tree.structure() == reference_tree.structure()
        assert tree.polynomial(len(reference_tree) - 1) == share

    def test_concurrent_first_reads_build_once(self, pair):
        (_, server, tree), (_, reference, reference_tree) = pair
        barrier = threading.Barrier(6)
        results = {}

        def read(index):
            barrier.wait()
            if index % 2:
                results[index] = [server.share_of(node_id)
                                  for node_id in reference.node_ids()]
            else:
                results[index] = [tree.polynomial(node_id)
                                  for node_id in reference_tree.node_ids()]

        threads = [threading.Thread(target=read, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shares = [reference.share_of(node_id) for node_id in reference.node_ids()]
        polynomials = [reference_tree.polynomial(node_id)
                       for node_id in reference_tree.node_ids()]
        for index, got in results.items():
            assert got == (shares if index % 2 else polynomials)
        assert server.share_rows() is None and tree.row_form() is None

    def test_copies_of_a_lazy_tree(self, pair):
        (_, server, tree), (_, reference, reference_tree) = pair
        for copied in (copy.deepcopy(server), pickle.loads(pickle.dumps(server))):
            assert copied.share_rows() is not None
            assert copied.shares == reference.shares
        copied = copy.deepcopy(tree)
        assert copied.row_form() is not None
        assert copied.structure() == reference_tree.structure()
        assert server.share_rows() is not None and tree.row_form() is not None

    def test_lookups_over_either_backend(self, pair, share_backend):
        (client, server, _), (_, reference, _) = pair
        tag = sorted(client.mapping.tags())[3]
        answers = []
        for tree in (server, reference):
            adapter = LocalServerAdapter(share_backend(tree))
            outcome = client.engine(adapter, verification=VerificationMode.FULL).lookup(tag)
            answers.append((outcome.matches, outcome.zero_nodes))
        assert answers[0] == answers[1]


class TestCrossover:
    def test_a_small_subtree_stays_per_node(self):
        document = random_document(16, 5, tags=8)
        ring = FpQuotientRing(53)
        mapping = TagMapping.for_tags(document.distinct_tags(), max_value=51)
        assert encode_document(document, mapping, ring).row_form() is None

    @numpy_present
    def test_large_primes_stay_per_node(self):
        document = random_document(400, 6, tags=60)
        ring = FpQuotientRing(1021)
        mapping = TagMapping.for_tags(document.distinct_tags(), max_value=1019)
        assert 400 * 1020 >= EVALUATION_MIN_COEFFS
        assert encode_document(document, mapping, ring).row_form() is None
