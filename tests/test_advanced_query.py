"""Tests for advanced (multi-step) querying: both strategies, all workloads."""

import pytest

from repro.baselines import PlaintextSearchIndex
from repro.core import (
    AdvancedQueryExecutor,
    AdvancedStrategy,
    LocalServerAdapter,
    QueryStats,
    choose_int_ring,
    outsource_document,
)
from repro.core.share_tree import CoefficientRows
from repro.errors import TagRecoveryError, VerificationError
from repro.net import InstrumentedChannel, RemoteUpdatableTree, SearchServer, connect
from repro.net.client import RemoteServerAdapter
from repro.workloads import (
    CATALOG_QUERIES,
    XMARK_QUERIES,
    XMarkConfig,
    figure1_document,
    generate_catalog_document,
    generate_xmark_document,
)
from repro.xmltree import parse_document, parse_element


def recorded_session(tree):
    """A wire adapter over an in-process server, and the requests it sends."""
    server = SearchServer(tree)
    requests = []

    def handler(message):
        requests.append(message)
        return server.handle(message)

    return RemoteServerAdapter(InstrumentedChannel(handler), tree.ring), requests


class TestCorrectness:
    @pytest.mark.parametrize("query", CATALOG_QUERIES)
    def test_catalog_queries_match_plaintext(self, outsourced_catalog,
                                             catalog_document, query):
        client, server_tree, _ = outsourced_catalog
        truth = PlaintextSearchIndex(catalog_document).query(query).matches
        for strategy in AdvancedStrategy:
            assert client.xpath(server_tree, query, strategy=strategy).matches == truth

    @pytest.mark.parametrize("query", XMARK_QUERIES)
    def test_xmark_queries_match_plaintext(self, query):
        document = generate_xmark_document(XMarkConfig(items_per_region=2, people=6,
                                                       open_auctions=4))
        client, server_tree, _ = outsource_document(document, seed=b"xmark")
        truth = PlaintextSearchIndex(document).query(query).matches
        for strategy in AdvancedStrategy:
            assert client.xpath(server_tree, query, strategy=strategy).matches == truth

    def test_int_ring_advanced_query(self):
        document = generate_catalog_document()
        client, server_tree, _ = outsource_document(
            document, ring=choose_int_ring(2), seed=b"adv-int")
        truth = PlaintextSearchIndex(document).query("//customer/order//product").matches
        assert client.xpath(server_tree, "//customer/order//product").matches == truth

    def test_empty_result_queries(self, outsourced_catalog, catalog_document):
        client, server_tree, _ = outsourced_catalog
        # 'location' only occurs under warehouses, never under customers.
        query = "//customer//location"
        assert PlaintextSearchIndex(catalog_document).query(query).matches == []
        result = client.xpath(server_tree, query)
        assert result.matches == []
        # The single-pass strategy notices the dead end after very few steps.
        assert result.per_step_candidates[-1] == 0

    def test_absolute_child_path(self, outsourced_catalog, catalog_document):
        client, server_tree, _ = outsourced_catalog
        truth = PlaintextSearchIndex(catalog_document).query("/company/customers").matches
        assert client.xpath(server_tree, "/company/customers").matches == truth
        assert client.xpath(server_tree, "/customers").matches == []

    def test_wildcard_steps(self, outsourced_catalog, catalog_document):
        """Also over the wire, where a descendant wildcard step prunes on
        no point and learns the subtree from child lists alone."""
        client, server_tree, _ = outsourced_catalog
        adapter, _ = recorded_session(server_tree)
        for query in ("//customer/*", "//*/order", "//order/*/product",
                      "//customer//*", "/company//*"):
            truth = PlaintextSearchIndex(catalog_document).query(query).matches
            assert client.xpath(server_tree, query).matches == truth
            assert client.xpath(adapter, query).matches == truth

    def test_repeated_tag_in_path(self):
        document = parse_document("<a><b><a><b/></a></b><b/></a>")
        client, server_tree, _ = outsource_document(document, seed=b"rep")
        truth = PlaintextSearchIndex(document).query("//a/b//a").matches
        assert client.xpath(server_tree, "//a/b//a").matches == truth

    def test_precompiled_plan_accepted(self, outsourced_catalog, catalog_document):
        from repro.xpath import compile_plan

        client, server_tree, _ = outsourced_catalog
        plan = compile_plan("//customer/order")
        truth = PlaintextSearchIndex(catalog_document).query("//customer/order").matches
        assert client.xpath(server_tree, plan).matches == truth


class TestStrategyComparison:
    def test_single_pass_prunes_haystack_branches_early(self):
        """The paper's claim: pruning on the whole remaining tag multiset
        filters branches "in a very early stage".

        The document has a large 'haystack' subtree full of ``a`` elements
        without any ``b`` below them, and one small subtree where ``//a/b``
        actually matches.  The left-to-right strategy explores the haystack
        (it prunes only on ``a``); the single-pass strategy discards it at its
        root because the haystack lacks ``b``.
        """
        from repro.xmltree import XmlDocument, XmlElement

        root = XmlElement("root")
        haystack = root.add("haystack")
        for _ in range(20):
            haystack.add("a").add("c")
        needle = root.add("needle")
        needle.add("a").add("b")
        document = XmlDocument(root)

        client, server_tree, _ = outsource_document(document, seed=b"strategy")
        truth = PlaintextSearchIndex(document).query("//a/b").matches
        single = client.xpath(server_tree, "//a/b",
                              strategy=AdvancedStrategy.SINGLE_PASS)
        naive = client.xpath(server_tree, "//a/b",
                             strategy=AdvancedStrategy.LEFT_TO_RIGHT)
        assert single.matches == naive.matches == truth
        # The naive strategy evaluates every haystack 'a' node; the single-pass
        # strategy stops at the haystack root.
        assert single.stats.evaluations < naive.stats.evaluations / 2

    def test_strategies_agree_on_xmark(self):
        document = generate_xmark_document(XMarkConfig(items_per_region=4, people=12,
                                                       open_auctions=8))
        client, server_tree, _ = outsource_document(document, seed=b"strategy")
        for query in ["//europe/item", "//open_auction/bidder/personref",
                      "//people/person/profile", "//person/profile/education"]:
            single = client.xpath(server_tree, query,
                                  strategy=AdvancedStrategy.SINGLE_PASS)
            naive = client.xpath(server_tree, query,
                                 strategy=AdvancedStrategy.LEFT_TO_RIGHT)
            assert single.matches == naive.matches

    def test_result_metadata(self, outsourced_catalog):
        client, server_tree, _ = outsourced_catalog
        result = client.xpath(server_tree, "//customer/order")
        assert result.strategy is AdvancedStrategy.SINGLE_PASS
        assert len(result.per_step_candidates) == 2
        assert str(result.plan.path) == "//customer/order"


class TestQueryMemo:
    """Over a batched transport a query keeps the evaluations and child
    lists it received, for that query only."""

    def test_a_reused_engine_sees_edits_committed_between_queries(self):
        """Each query starts from an empty memo.  A memo kept across
        lookups would answer ``//client`` with ``[1, 3]`` after the first
        rename and fail verification on ``//name`` after the insert (stale
        child lists); one kept across XPaths would answer
        ``//client/client`` with ``[]`` after the second rename."""
        document = figure1_document(clients=2)
        client, tree, _ = outsource_document(document, seed=b"memo-scope")
        adapter, _ = recorded_session(tree)
        engine = client.engine(adapter)
        executor = AdvancedQueryExecutor(engine)
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        # customers 0 holds client 1 (name 2) and client 3 (name 4).
        assert engine.lookup("client").matches == [1, 3]
        assert engine.lookup("name").matches == [2, 4]
        editor.rename_node(1, "name")
        assert engine.lookup("client").matches == [3]
        editor.insert_subtree(1, parse_element("<name/>"))
        assert engine.lookup("name").matches == [1, 2, 4, 5]
        assert executor.execute("//client/name").matches == [4]
        editor.rename_node(4, "client")
        assert executor.execute("//client/client").matches == [4]

    def test_a_child_step_sends_no_round_for_values_it_holds(
            self, outsourced_catalog, catalog_document):
        """``//customer/order``'s first step evaluated every child of each
        ``customer`` at both points, so its child step filters them
        without a round: every evaluation round is a descent round, which
        asks for child lists."""
        client, server_tree, _ = outsourced_catalog
        adapter, requests = recorded_session(server_tree)
        result = client.xpath(adapter, "//customer/order")
        assert result.matches == PlaintextSearchIndex(catalog_document).query(
            "//customer/order").matches
        rounds = [request for request in requests
                  if request.kind == "frontier" and request.points]
        assert rounds and all(request.include_children for request in rounds)

    def test_a_descent_over_filtered_nodes_asks_for_their_child_lists(
            self, outsourced_catalog):
        """A filter's values arrive without child lists, so a descent from
        the same nodes at the same points still sends its first round."""
        client, server_tree, _ = outsourced_catalog
        adapter, requests = recorded_session(server_tree)
        top = server_tree.child_ids(server_tree.root_id)
        tags = ["customer", "order"]
        expected, _ = client.engine(adapter).containment_frontier(
            tags, start_nodes=top)
        assert set(expected) - set(top)

        engine = client.engine(adapter)
        stats = QueryStats()
        engine.filter_containing(top, tags, stats)
        del requests[:]
        zero_nodes, _ = engine.containment_frontier(tags, start_nodes=top,
                                                    stats=stats)
        assert zero_nodes == expected
        assert requests[0].node_ids == top and requests[0].include_children


#: ``//client//city`` anchors client 1 (closure: 0, 1, 2, 3, 6, 9) in its
#: first step, then address 3 and city 5 (closure: 3, 4, 5) in its
#: second: street 4 is a row only the second step's anchor fetches.
TAMPER_DOCUMENT = ("<customers><client><name/><address><street/><city/>"
                   "</address></client><client><name/><phone/></client>"
                   "<supplier><name/><city/></supplier></customers>")
TAMPER_QUERY = "//client//city"


def broken(row, p):
    """``row`` with its ``x`` coefficient moved, so the node's polynomial
    is no longer ``(x - t)`` times its children's product."""
    row = list(row) + [0] * (2 - len(row))
    row[1] = (row[1] + 1) % p
    return row


class TamperingLocalAdapter(LocalServerAdapter):
    """The in-process server, serving one node's share row broken."""

    def __init__(self, tree, node_id):
        super().__init__(tree)
        self.node_id = node_id

    def frontier(self, *args, **kwargs):
        answer = super().frontier(*args, **kwargs)
        if self.node_id not in answer.rows:
            return answer
        rows = dict(answer.rows)
        rows[self.node_id] = broken(rows[self.node_id], self.share_tree.ring.p)
        return answer._replace(rows=rows)


def tampering_session(tree, node_id):
    """A :func:`~repro.net.connect` session whose server breaks
    ``node_id``'s share row in every response, and the set of row ids
    each response carried."""
    server = SearchServer(tree)
    handle = server.handle
    served = []

    def tampering_handle(message):
        response = handle(message)
        if getattr(response, "rows", None):
            rows = response.bind(message).rows
            served.append(set(rows))
            response.rows = CoefficientRows(rows.ids, rows.width, rows=[
                broken(rows[row_id], tree.ring.p) if row_id == node_id
                else rows[row_id] for row_id in rows.ids])
        return response

    server.handle = tampering_handle
    adapter, _ = connect(server)
    return adapter, served


class TestTamperedRows:
    """FULL verification catches a broken share row in either anchor step
    of an XPath, over the in-process server and over the wire, although
    the second step recovers part of its closure from rows the first
    step received."""

    @pytest.fixture(scope="class")
    def outsourced(self):
        return outsource_document(parse_document(TAMPER_DOCUMENT), seed=b"tamper")

    def test_the_steps_fetch_the_rows_the_cases_break(self, outsourced):
        client, tree, _ = outsourced
        adapter, served = tampering_session(tree, None)
        assert client.xpath(adapter, TAMPER_QUERY).matches == [5]
        first, *later = served
        assert 1 in first
        assert 4 in set().union(*later) - first

    @pytest.mark.parametrize("transport", ["local", "connect"])
    @pytest.mark.parametrize("node_id", [1, 4],
                             ids=["first-step-row", "second-step-row"])
    def test_a_broken_row_fails_the_xpath(self, outsourced, transport, node_id):
        client, tree, _ = outsourced
        adapter = (TamperingLocalAdapter(tree, node_id) if transport == "local"
                   else tampering_session(tree, node_id)[0])
        with pytest.raises(VerificationError):
            client.xpath(adapter, TAMPER_QUERY)

    @pytest.mark.parametrize("transport", ["local", "connect"])
    def test_a_broken_row_fails_tag_recovery(self, outsourced, transport):
        """``tag_of`` and ``tag_path_of`` raise :class:`VerificationError`
        for a broken row, as a query does, from the
        :class:`TagRecoveryError` of its reconstruction."""
        client, tree, _ = outsourced
        adapter = (TamperingLocalAdapter(tree, 1) if transport == "local"
                   else tampering_session(tree, 1)[0])
        for recover in (client.tag_of, client.tag_path_of):
            with pytest.raises(VerificationError) as caught:
                recover(adapter, 1)
            assert isinstance(caught.value.__cause__, TagRecoveryError)
