"""One differential oracle: every serving path against the plaintext baseline.

Bit-identity to the paper's reference path is the invariant every
serving change must keep.  This module checks it once, over the whole
path matrix, instead of per feature:

* **reference** — :class:`~repro.core.query.LocalServerAdapter` over the
  in-memory share tree on the generic kernel tier: the engine's one
  descent, whose exchanges the in-process server answers at lookahead 0;
* **paths** — an in-process session (:func:`~repro.net.connect`), a
  socket session (:func:`~repro.net.connect_socket`) against
  :class:`~repro.net.ThreadedSearchServer`, and a resilient socket
  session (:func:`~repro.net.connect_resilient_socket`), all speaking the
  one wire generation;
* **other dimensions** — in-memory and SQLite stores; the vector, flat
  and generic kernel tiers (vector resolves to flat without numpy, and on
  ``Z`` rings); FULL, CONSTANT_ONLY and NONE verification.

Each row runs a lookup of every tag, an XPath with absolute, descendant
and child steps (plus, where a tag nests, a ``//T//U`` whose second step
starts from nested context nodes), and an insert/rename/delete/insert
edit script through :class:`~repro.net.RemoteUpdatableTree`.  Its
answers must equal the reference's, per mode; a socket session's byte
accounting must equal an in-process session's; what the server learned
in the read phase (its :class:`~repro.core.query.ServerObservations`
ledger) must equal an in-process session's on every socket and resilient
row, so no store, tier or transport changes the leakage, and must equal
the reference's in the fields the lookahead does not move
(:func:`unmoved`); after each edit the store must equal an in-process
:class:`~repro.core.UpdatableTree` run of the script on a copy, with the
same commit log and the same report, and after the script the answers
must equal the reference over the edited copy.  The reference itself is
held against :class:`~repro.baselines.PlaintextSearchIndex`.

Every document runs the full product of paths, stores, tiers and modes.
The figure-1 documents run every mode inside each row; the other
documents run one mode per row, so a failure names its mode.
"""

import contextlib
import itertools

import pytest

from repro.algebra import use_kernels, use_vector_kernels
from repro.baselines import PlaintextSearchIndex
from repro.core import (
    UpdatableTree,
    VerificationMode,
    choose_int_ring,
    outsource_document,
)
from repro.core.query import LocalServerAdapter
from repro.net import (
    RemoteUpdatableTree,
    SearchServer,
    SQLiteShareStore,
    ThreadedSearchServer,
    connect,
    connect_resilient_socket,
    connect_socket,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.workloads import RandomXmlConfig, figure1_document, generate_random_document
from repro.xmltree import XmlElement, parse_document, parse_element

PATHS = ("in-process", "socket", "resilient")
STORES = ("memory", "sqlite")
TIERS = ("vector", "flat", "generic")
MODES = (VerificationMode.FULL, VerificationMode.CONSTANT_ONLY,
         VerificationMode.NONE)
EDIT_OPERATIONS = ["insert", "rename", "delete", "insert"]


def random_document():
    """~120 elements over 8 tags: p = 11, so many subtrees wrap the ring."""
    return generate_random_document(
        RandomXmlConfig(element_count=120, tag_vocabulary_size=8, seed=3))


#: name -> (document factory, ring factory or None for the default F_p ring)
DOCUMENTS = {
    "figure1-c2": (lambda: figure1_document(clients=2), None),
    "figure1-c8": (lambda: figure1_document(clients=8), None),
    "random-fp": (random_document, None),
    "random-z": (random_document,
                 lambda: choose_int_ring(2, random_bound=2 ** 80)),
    "one-element": (lambda: parse_document("<solo/>"), None),
}
ALL_MODES_PER_ROW = ("figure1-c2", "figure1-c8")

ROWS = [(name, path, store, tier, modes)
        for name in DOCUMENTS
        for path, store, tier in itertools.product(PATHS, STORES, TIERS)
        for modes in ([MODES] if name in ALL_MODES_PER_ROW
                      else [(mode,) for mode in MODES])]


def row_id(row):
    name, path, store, tier, modes = row
    return "-".join([name, path, store, tier]
                    + (["all-modes"] if modes == MODES else [modes[0].value]))


# -- cases ------------------------------------------------------------------------

def clone(tree):
    """An independent, bit-identical copy of a server share tree."""
    return share_tree_from_dict(share_tree_to_dict(tree))


def store_state(store):
    """Structure and shares of a store, bit for bit."""
    return {node_id: (store.parent_id(node_id),
                      tuple(store.child_ids(node_id)),
                      tuple(store.share_of(node_id).coeffs))
            for node_id in store.node_ids()}


def xpath_queries(document):
    """An absolute query with a descendant and a child step to one leaf,
    then :func:`nested_queries`."""
    root = document.root
    if not root.children:
        return [f"/{root.tag}", f"//{root.tag}"]
    parent = next((child for child in root.children if child.children),
                  root.children[0])
    inner = parent.children[0].tag if parent.children else root.tag
    return [f"/{root.tag}//{parent.tag}/{inner}"] + nested_queries(document)


def nested_queries(document):
    """``//T//U`` from the first element with a ``T`` ancestor of its own
    tag and a descendant, ``U`` the least tag below it (so it has an
    answer); empty when no tag nests.

    Its second step descends from nested context nodes, the one case
    where a descent could reach a node twice.
    """
    for element in document.iter():
        below = sorted({node.tag for node in element.descendants()})
        if below and any(ancestor.tag == element.tag
                         for ancestor in element.ancestors()):
            return [f"//{element.tag}//{below[0]}"]
    return []


def edit_targets(tree, document):
    """Deterministic script targets read off the tree before any edit."""
    tags = sorted(document.distinct_tags())
    children = tree.child_ids(tree.root_id)
    return {"root": tree.root_id, "outer": tags[0], "inner": tags[-1],
            "rename": children[-1] if children else None,
            "delete": children[0] if children else None}


def edit_script(editor, targets):
    """insert, rename, delete, insert: the script every path replays.

    Yields each edit's report as soon as the edit has committed.
    """
    outer, inner = targets["outer"], targets["inner"]
    first = editor.insert_subtree(
        targets["root"], parse_element(f"<{outer}><{inner}/></{outer}>"))
    yield first
    yield editor.rename_node(targets["rename"] or first.new_node_ids[-1], outer)
    yield editor.delete_subtree(targets["delete"] or first.new_node_ids[0])
    yield editor.insert_subtree(targets["root"], XmlElement(inner))


def report_fields(report):
    return (report.new_node_ids, report.removed_node_ids,
            report.affected_ancestors)


def lookups(client, adapter, tags, mode):
    answers = {}
    for tag in tags:
        outcome = client.lookup(adapter, tag, verification=mode)
        answers[tag] = (outcome.matches, outcome.unverified_candidates)
    return answers


def read_phase(case, adapter, modes):
    """Every tag's lookup and every XPath, per mode."""
    return {mode: (lookups(case.client, adapter, case.tags, mode),
                   {query: case.client.xpath(adapter, query,
                                             verification=mode).matches
                    for query in case.queries})
            for mode in modes}


class Case:
    """One outsourced document with its reference answers, built lazily."""

    def __init__(self, name):
        make_document, make_ring = DOCUMENTS[name]
        self.document = make_document()
        self.client, self.tree, _ = outsource_document(
            self.document, ring=make_ring() if make_ring else None,
            seed=f"oracle-{name}".encode())
        self.tags = sorted(self.document.distinct_tags())
        self.queries = xpath_queries(self.document)
        self.plaintext = PlaintextSearchIndex(self.document)
        self.targets = edit_targets(self.tree, self.document)
        #: ``mode -> (read phase answers, the reference server's ledger)``.
        self._reference = {}
        self._edited = None
        #: ``modes -> ChannelStats.as_dict()`` of in-process read phases,
        #: recorded by the in-process rows as they run.
        self.in_process_stats = {}
        #: ``modes -> ledger(...)`` of in-process read phases, recorded
        #: the same way.
        self.in_process_ledgers = {}

    def reference(self, modes):
        """The reference's read phase answers per mode, and what its server
        learned over them (:func:`unmoved`)."""
        for mode in modes:
            if mode not in self._reference:
                adapter = LocalServerAdapter(self.tree)
                with use_kernels(False):
                    answers = read_phase(self, adapter, [mode])[mode]
                self._reference[mode] = (answers, adapter.observations)
        return ({mode: self._reference[mode][0] for mode in modes},
                unmoved(self._reference[mode][1] for mode in modes))

    def edited(self):
        """The script run in process on a copy.

        Returns each edit's ``(report fields, store state)`` and the
        reference answers over the edited copy, per mode.
        """
        if self._edited is None:
            copy = clone(self.tree)
            with use_kernels(False):
                editor = UpdatableTree(self.client.ring, self.client.mapping,
                                       self.client.share_generator, copy)
                steps = [(report_fields(report), store_state(copy))
                         for report in edit_script(editor, self.targets)]
                answers = {mode: lookups(self.client, LocalServerAdapter(copy),
                                         self.tags, mode) for mode in MODES}
            self._edited = (steps, answers)
        return self._edited

    def expected(self, modes):
        """What a socket read phase must account, and the ledger it must
        leave.

        A row whose in-process twin has not run (a ``-k`` selection) runs
        the in-process read phase itself.
        """
        if modes not in self.in_process_ledgers:
            core = SearchServer(self.tree)
            adapter, channel = connect(core)
            read_phase(self, adapter, modes)
            self.in_process_stats[modes] = channel.stats.as_dict()
            self.in_process_ledgers[modes] = ledger(core)
        return self.in_process_stats[modes], self.in_process_ledgers[modes]


def ledger(core):
    """What the server learned about the hosted document, in counts."""
    observations = core.document().observations
    return observations.as_dict(), dict(observations.point_counts)


def unmoved(ledgers):
    """What servers learned, over ``ledgers``, in the fields the lookahead
    does not change: the distinct points, the pruned nodes and the rows and
    constants served.  The lookahead speculates evaluations only, so the
    reference, at lookahead 0, asks for fewer of them than a session."""
    points, pruned, polynomials, constants = set(), 0, 0, 0
    for observations in ledgers:
        points.update(observations.point_counts)
        pruned += observations.pruned_nodes
        polynomials += observations.polynomials_served
        constants += observations.constants_served
    return len(points), pruned, polynomials, constants


@pytest.fixture(scope="module")
def cases():
    """Each document's :class:`Case`, built on first use, shared by its rows."""
    built = {}

    def case_for(name):
        if name not in built:
            built[name] = Case(name)
        return built[name]

    return case_for


# -- the row runner ---------------------------------------------------------------

@contextlib.contextmanager
def kernel_tier(tier):
    if tier == "generic":
        with use_kernels(False):
            yield
    elif tier == "flat":
        with use_vector_kernels(False):
            yield
    else:
        yield


@contextlib.contextmanager
def hosted(case, store, tmp_path):
    """A server core over a copy of the row's store (every row edits it)."""
    if store == "memory":
        yield SearchServer(clone(case.tree))
        return
    durable = SQLiteShareStore.from_tree(str(tmp_path / "oracle.db"), case.tree)
    try:
        yield SearchServer(durable)
    finally:
        durable.close()


@contextlib.contextmanager
def session(path, core, ring):
    """``(adapter, channel)`` for one path."""
    if path == "in-process":
        yield connect(core)
        return
    transport = ThreadedSearchServer(core).start()
    try:
        opener = connect_socket if path == "socket" else connect_resilient_socket
        adapter, channel = opener(*transport.address, ring)
        try:
            yield adapter, channel
        finally:
            channel.close()
    finally:
        transport.stop()


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_path_matches_reference(row, cases, tmp_path):
    name, path, store, tier, modes = row
    case = cases(name)
    reference, learned_by_reference = case.reference(modes)
    with kernel_tier(tier), hosted(case, store, tmp_path) as core, \
            session(path, core, case.tree.ring) as (adapter, channel):
        assert read_phase(case, adapter, modes) == reference
        assert unmoved([core.document().observations]) == learned_by_reference
        if path == "in-process":
            case.in_process_stats[modes] = channel.stats.as_dict()
            case.in_process_ledgers[modes] = ledger(core)
        else:
            stats, learned = case.expected(modes)
            assert ledger(core) == learned
            if path == "socket":
                assert channel.stats.as_dict() == stats
        steps, answers = case.edited()
        editor = RemoteUpdatableTree(adapter, case.client.mapping,
                                     case.client.share_generator)
        document = core.document()
        for count, (report, (fields, state)) in enumerate(
                zip(edit_script(editor, case.targets), steps), start=1):
            assert report_fields(report) == fields
            assert store_state(document.store) == state
            assert [entry[1] for entry in document.update_log] == \
                EDIT_OPERATIONS[:count]
        assert len(document.update_log) == len(EDIT_OPERATIONS)
        assert editor.rebases == 0
        for mode in modes:
            assert lookups(case.client, adapter, case.tags, mode) == \
                answers[mode]


# -- the reference against the plaintext baseline ---------------------------------

def subtree_size(tree, node_id):
    stack, size = [node_id], 0
    while stack:
        size += 1
        stack.extend(tree.child_ids(stack.pop()))
    return size


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_reference_agrees_with_plaintext(name, cases):
    case = cases(name)
    reference, _ = case.reference(MODES)
    truth = {tag: case.plaintext.lookup(tag).matches for tag in case.tags}
    assert any(truth.values())

    full_lookups, full_xpaths = reference[VerificationMode.FULL]
    assert {tag: matches for tag, (matches, _) in full_lookups.items()} == truth
    assert all(not unverified for _, unverified in full_lookups.values())
    assert full_xpaths == {query: case.plaintext.query(query).matches
                           for query in case.queries}

    for tag, (matches, unverified) in \
            reference[VerificationMode.NONE][0].items():
        assert set(matches) <= set(truth[tag]) <= set(matches) | set(unverified)

    # CONSTANT_ONLY never misses a true match, but it can confirm a node
    # whose subtree is large enough for the reduced product to wrap, where
    # the constant-term equation can hold by coincidence.
    degree_bound = case.tree.ring.degree_bound
    for tag, (matches, unverified) in \
            reference[VerificationMode.CONSTANT_ONLY][0].items():
        assert set(truth[tag]) <= set(matches) | set(unverified)
        assert all(subtree_size(case.tree, node_id) >= degree_bound
                   for node_id in set(matches) - set(truth[tag]))


def test_random_documents_query_from_nested_contexts(cases):
    for name in ("random-fp", "random-z"):
        case = cases(name)
        (query,) = nested_queries(case.document)
        assert query in case.queries
        assert case.plaintext.query(query).matches


def test_rows_cover_every_combination():
    dimensions = (PATHS, STORES, TIERS, MODES)
    for name in DOCUMENTS:
        covered = {(path, store, tier, mode)
                   for row_name, path, store, tier, modes in ROWS
                   if row_name == name for mode in modes}
        assert covered == set(itertools.product(*dimensions)), name
