"""Property-based tests for the wire protocol and persistence formats."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import FpQuotientRing, IntQuotientRing, default_int_modulus
from repro.core import ServerShareTree
from repro.core.share_tree import CoefficientRows
from repro.errors import ProtocolError
from repro.net import (
    decode_message,
    ring_from_dict,
    ring_to_dict,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.net.messages import (
    MAX_LOOKAHEAD,
    FrontierRequest,
    FrontierResponse,
    HelloRequest,
    HelloResponse,
    PruneNotice,
)
from repro.net.pages import encode_int_vector

node_id_lists = st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30)
#: The id lists a server expands or fetches: any order, each id once.
distinct_id_lists = st.lists(st.integers(min_value=0, max_value=10 ** 6),
                             unique=True, max_size=30)
unique_ids = st.lists(st.integers(min_value=0, max_value=999), unique=True,
                      max_size=12)
values = st.integers(min_value=-(10 ** 12), max_value=10 ** 12)


class TestMessageRoundTrips:
    """A frontier-ok's positional sections survive the wire, and bound to
    the request they answer they give its nodes' data back."""

    @given(st.lists(st.integers(min_value=1, max_value=50), unique=True,
                    max_size=4), unique_ids, st.data())
    def test_evaluations(self, points, node_ids, data):
        evaluations = {point: {node_id: data.draw(values)
                               for node_id in node_ids}
                       for point in points}
        response = FrontierResponse(
            sorted(points) if node_ids else [],
            [list(evaluations[point].values()) for point in sorted(points)]
            if node_ids else [])
        request = FrontierRequest(node_ids, points, include_children=False)
        decoded = decode_message(response.encode()).bind(request)
        assert decoded.evaluations == evaluations

    @given(unique_ids, st.integers(min_value=1, max_value=8), st.data())
    def test_share_rows(self, node_ids, width, data):
        rows = {node_id: data.draw(st.lists(values, min_size=width,
                                            max_size=width))
                for node_id in node_ids}
        response = FrontierResponse(rows=CoefficientRows(
            node_ids, width, rows=list(rows.values())))
        request = FrontierRequest(include_children=False,
                                  fetch_polynomials=node_ids)
        decoded = decode_message(response.encode()).bind(request)
        assert dict(decoded.rows) == rows

    @given(st.dictionaries(st.integers(min_value=0, max_value=999), values, max_size=20))
    def test_constants(self, mapping):
        response = FrontierResponse(constants=list(mapping.values()))
        request = FrontierRequest(include_children=False,
                                  fetch_constants=list(mapping))
        decoded = decode_message(response.encode()).bind(request)
        assert decoded.constants == mapping

    @given(node_id_lists)
    def test_prune_notice(self, node_ids):
        assert decode_message(PruneNotice(node_ids).encode()).node_ids == list(node_ids)

    @given(distinct_id_lists.filter(bool), st.data())
    def test_repeated_request_ids_are_refused(self, node_ids, data):
        repeated = data.draw(st.permutations(
            node_ids + [data.draw(st.sampled_from(node_ids))]))
        for message in (FrontierRequest(repeated, [3]),
                        FrontierRequest(fetch_polynomials=repeated),
                        FrontierRequest(fetch_constants=repeated)):
            with pytest.raises(ProtocolError, match="node ids repeat"):
                decode_message(message.encode())

    @given(st.dictionaries(st.integers(min_value=0, max_value=99),
                           st.lists(st.integers(min_value=0, max_value=99), max_size=6),
                           max_size=10))
    def test_child_lists(self, mapping):
        lists = list(mapping.values())
        response = FrontierResponse(child_counts=[len(ids) for ids in lists],
                                    child_ids=[c for ids in lists for c in ids])
        request = FrontierRequest(list(mapping), [], include_children=True)
        decoded = decode_message(response.encode()).bind(request)
        assert decoded.children == mapping

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 6))
    def test_structure_summary(self, root_id, count):
        decoded = decode_message(
            HelloResponse(6, ["default"], root_id, count).encode())
        assert (decoded.root_id, decoded.node_count) == (root_id, count)

    @given(node_id_lists, st.integers(min_value=0, max_value=100))
    def test_byte_size_is_encoding_length(self, node_ids, point):
        message = FrontierRequest(node_ids, [point])
        assert message.byte_size() == len(message.encode())


class TestRingSerialisation:
    @given(st.sampled_from([5, 7, 11, 13, 101, 257]))
    def test_fp_rings_roundtrip(self, p):
        ring = FpQuotientRing(p)
        assert ring_from_dict(ring_to_dict(ring)) == ring

    @given(st.sampled_from([2, 3, 4]))
    def test_int_rings_roundtrip(self, degree):
        ring = IntQuotientRing(default_int_modulus(degree))
        assert ring_from_dict(ring_to_dict(ring)) == ring


class TestSessionMessages:
    @given(distinct_id_lists, st.lists(st.integers(min_value=1, max_value=100),
                                       unique=True, max_size=4),
           node_id_lists, st.booleans(),
           st.integers(min_value=0, max_value=MAX_LOOKAHEAD),
           st.one_of(st.none(), st.text(min_size=1, max_size=12)))
    def test_frontier_request(self, node_ids, points, prune, children,
                              lookahead, document_id):
        lookahead = lookahead if children else 0
        message = FrontierRequest(node_ids, points, prune=prune,
                                  include_children=children,
                                  lookahead=lookahead)
        message.for_document(document_id)
        decoded = decode_message(message.encode())
        assert decoded.node_ids == list(node_ids)
        assert decoded.points == list(points)
        assert decoded.prune == list(prune)
        assert decoded.include_children == children
        assert decoded.lookahead == lookahead
        assert decoded.document_id == document_id

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1,
                    max_size=4), st.booleans(),
           st.integers(min_value=-3, max_value=MAX_LOOKAHEAD + 3))
    def test_a_request_that_leaves_its_answer_open_is_refused(
            self, points, children, lookahead):
        """Repeated points, a lookahead outside 0..MAX_LOOKAHEAD and a
        lookahead without child lists are refused; every other request
        decodes."""
        open_ended = (len(set(points)) != len(points)
                      or not 0 <= lookahead <= MAX_LOOKAHEAD
                      or (lookahead and not children))
        head = json.dumps({"kind": "frontier", "points": points,
                           "children": children, "lookahead": lookahead,
                           "sections": ["node_ids"]},
                          separators=(",", ":")).encode()
        frame = head + b"\n" + encode_int_vector([0])
        if open_ended:
            with pytest.raises(ProtocolError, match="lookahead|points"):
                decode_message(frame)
        else:
            assert decode_message(frame).lookahead == lookahead

    @given(st.lists(st.integers(min_value=1, max_value=99), min_size=1,
                    max_size=4, unique=True))
    def test_hello_roundtrip(self, versions):
        decoded = decode_message(HelloRequest(versions).encode())
        assert decoded.versions == list(versions)

    @given(distinct_id_lists)
    def test_document_stamp_preserved(self, node_ids):
        message = FrontierRequest(node_ids, [3]).for_document("tenant-7")
        decoded = decode_message(message.encode())
        assert decoded.document_id == "tenant-7"
        # Unstamped messages leave the field out of the encoding.
        assert b"document_id" not in FrontierRequest(node_ids, [3]).encode()


def _tree_strategy(ring):
    """Random share trees: random shapes, shares including the constant and
    zero polynomials, leaves with empty child lists."""
    if isinstance(ring, FpQuotientRing):
        coefficient = st.integers(min_value=0, max_value=ring.p - 1)
        max_len = ring.p - 1
    else:
        coefficient = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
        max_len = ring.modulus.degree
    coefficients = st.lists(coefficient, min_size=0, max_size=max_len)
    return st.lists(coefficients, min_size=1, max_size=12).flatmap(
        lambda shares: st.tuples(
            st.just(shares),
            st.tuples(*[st.integers(min_value=0, max_value=max(index - 1, 0))
                        for index in range(len(shares))])))


def _build_tree(ring, shares, parents):
    tree = ServerShareTree(ring)
    for index, coefficients in enumerate(shares):
        parent = None if index == 0 else parents[index]
        tree.add_node(index, parent, ring.from_coefficients(coefficients))
    return tree


class TestShareTreePersistenceProperties:
    """Satellite: `share_tree_to_dict`/`from_dict` round-trips exactly, for
    both encoding rings, including empty-children and constant-share nodes."""

    @given(_tree_strategy(FpQuotientRing(7)))
    def test_fp_share_tree_roundtrip(self, shape):
        self._assert_roundtrip(FpQuotientRing(7), *shape)

    @given(_tree_strategy(IntQuotientRing(default_int_modulus(2))))
    def test_int_share_tree_roundtrip(self, shape):
        self._assert_roundtrip(IntQuotientRing(default_int_modulus(2)), *shape)

    @staticmethod
    def _assert_roundtrip(ring, shares, parents):
        tree = _build_tree(ring, shares, parents)
        restored = share_tree_from_dict(share_tree_to_dict(tree))
        assert restored.ring == tree.ring
        assert restored.root_id == tree.root_id
        assert restored.node_ids() == tree.node_ids()
        for node_id in tree.node_ids():
            assert restored.share_of(node_id) == tree.share_of(node_id)
            assert restored.parent_id(node_id) == tree.parent_id(node_id)
            # Child *order* is part of the structure and must survive.
            assert restored.child_ids(node_id) == tree.child_ids(node_id)

    def test_edge_nodes_explicitly(self):
        ring = FpQuotientRing(5)
        tree = ServerShareTree(ring)
        tree.add_node(0, None, ring.from_coefficients([3]))      # constant share
        tree.add_node(1, 0, ring.from_coefficients([]))          # zero share
        tree.add_node(2, 0, ring.from_coefficients([0, 1]))      # x
        restored = share_tree_from_dict(share_tree_to_dict(tree))
        assert restored.child_ids(0) == [1, 2]
        assert restored.child_ids(1) == []                       # empty children
        for node_id in (0, 1, 2):
            assert restored.share_of(node_id) == tree.share_of(node_id)
