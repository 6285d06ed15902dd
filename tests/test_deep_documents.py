"""Documents deeper than Python's recursion limit.

Every walk of the element model, the polynomial tree, the serializer and
the parser is iterative, so nesting depth is bounded by memory, not by
the interpreter's recursion limit (1,000 by default).  A 5,000-deep chain
goes through every stage that used to recurse once per level: parsing,
outsourcing, serialisation, cloning, ``height``, both post-order walks,
and an :meth:`~repro.core.UpdatableTree.insert_subtree` of a 1,500-deep
subtree whose result is checked node by node against encoding the
longer chain from scratch.
"""

import sys

import pytest

from repro.core import UpdatableTree, encode_document, outsource_document
from repro.core.share_tree import reconstruct_tree
from repro.xmltree import parse_document, parse_element, serialize_document

DEPTH = 5_000
INSERTED = 1_500


def chain(depth, tag="a"):
    return f"<{tag}>" * depth + f"</{tag}>" * depth


@pytest.fixture(scope="module")
def deep():
    assert DEPTH > 4 * sys.getrecursionlimit()
    document = parse_document(chain(DEPTH))
    client, tree, polynomials = outsource_document(document, seed=b"deep")
    return document, client, tree, polynomials


def test_parse_builds_the_whole_chain(deep):
    document = deep[0]
    assert document.size() == DEPTH
    assert document.height() == DEPTH - 1
    leaf = document.root
    while leaf.children:
        assert len(leaf.children) == 1
        leaf = leaf.children[0]
    assert leaf.depth() == DEPTH - 1


def test_serialise_and_parse_round_trip(deep):
    document = deep[0]
    compact = serialize_document(document, indent=0, declaration=False)
    assert compact == "<a>" * (DEPTH - 1) + "<a/>" + "</a>" * (DEPTH - 1)
    assert parse_document(serialize_document(document)).structurally_equal(
        document)


def test_clone_and_postorder_walks(deep):
    document, _, tree, polynomials = deep
    copy = document.clone()
    assert copy.structurally_equal(document)
    assert copy.root is not document.root
    walk = list(document.root.iter_postorder())
    assert [node.depth() for node in walk[:3]] == [DEPTH - 1, DEPTH - 2, DEPTH - 3]
    assert walk[-1] is document.root
    assert [node.node_id for node in polynomials.iter_postorder()] \
        == list(range(DEPTH - 1, -1, -1))
    assert len(tree.node_ids()) == DEPTH


def test_insert_a_deep_subtree(deep):
    _, client, tree, _ = deep
    editor = UpdatableTree(client.ring, client.mapping, client.share_generator,
                           tree)
    leaf = max(tree.node_ids())
    report = editor.insert_subtree(leaf, parse_element(chain(INSERTED)))
    assert report.new_node_ids == list(range(DEPTH, DEPTH + INSERTED))
    # Node ids are pre-order, so the edited tree numbers its nodes as the
    # longer chain encoded from scratch does.
    combined = reconstruct_tree(client.share_generator, tree)
    expected = encode_document(parse_document(chain(DEPTH + INSERTED)),
                               client.mapping, client.ring)
    assert combined.node_ids() == expected.node_ids()
    assert all(combined.polynomial(node_id) == expected.polynomial(node_id)
               for node_id in expected.node_ids())
