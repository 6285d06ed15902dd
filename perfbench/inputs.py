"""Seeded inputs for the served-protocol benchmark.

Everything a run sends to the system is derived here from ``--seed``: the
XML document, the lookup tags, the two-step XPath queries, the edit anchors
and subtrees, and the reference answers every operation is checked
against.  The program under test only ever sees the generated inputs.

Reference answers come from :class:`repro.baselines.plaintext.PlaintextSearchIndex`
on a plaintext mirror of the document that receives the same inserts as the
served store, and are computed before the timed window opens.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.baselines.plaintext import PlaintextSearchIndex
from repro.workloads import RandomXmlConfig, generate_random_document
from repro.xmltree import XmlDocument, XmlElement, serialize_document

#: The bench._concurrency_document shape: 48 tags, Zipf skew 1.6, depth <= 14.
TAG_VOCABULARY = 48
TAG_SKEW = 1.6
MAX_DEPTH = 14

#: Depth of the nodes edits insert under, and the size of each inserted subtree.
EDIT_DEPTH = 8
EDIT_SUBTREE_NODES = 16
#: Distinct (anchor, subtree) pairs an edit cycle rotates through.
EDIT_ANCHORS = 4

#: Rare tags considered for lookups: the rarest non-root tags of the document.
TAG_POOL = 16
#: Work target of the heaviest of ``cold-lookup``'s eight lookup tags, as a
#: multiple of the target for their median (the ratio eight tags nearest
#: the target had on the reference seeds).
HEAVIEST_LOOKUP = 1.08


class Workload(NamedTuple):
    """One traffic mix: document size, rotation shape and run length."""

    name: str
    elements: int
    lookups_per_rotation: int
    #: Rotations in the timed window per second of ``--seconds``.  The
    #: operation count is fixed by ``--seconds`` alone, never by how fast
    #: the program answers, so a faster build serves the same operations.
    rotations_per_second: float
    #: Work targets per lookup and per XPath, as shares of the element
    #: count (see :func:`choose_document`).
    lookup_work_share: float
    xpath_work_share: float
    #: The axis of the rotation's XPaths: "//" for //A//B, "/" for //A/B.
    #: One shape per workload keeps its latencies from splitting into two
    #: modes, whose boundary would then be the reported median.
    xpath_axis: str
    #: Whether A is the most frequent tag and B the first lookup tag, or
    #: A and B are two rare tags.
    xpath_from_frequent: bool
    #: Distinct XPaths in the rotation.  Several XPaths of about the same
    #: modelled work let a run's median average over their differences, as
    #: the lookup tags do for lookups, instead of following one seed's pick.
    xpaths_per_rotation: int
    #: Documents generated per seed; the one whose queries best match the
    #: work targets is served (see :func:`choose_document`).
    candidate_documents: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # Why each workload exists: perfbench/METHOD.md and BENCHMARK.json.
        Workload("cold-lookup", 40_000, 8, 13 / 30, 0.08, 0.0375, "/", False, 4, 6),
        Workload("read-write", 20_000, 2, 50 / 30, 0.055, 0.175, "//", True, 1, 8),
    )
}


class Op(NamedTuple):
    """One client operation of a rotation."""

    kind: str          # "lookup" | "xpath" | "insert" | "delete"
    target: str        # the tag or XPath text; "" for edits
    #: A read issued while the rotation's subtree is inserted; its answer is
    #: checked against the mirror with that subtree.
    inserted: bool = False


class Edit(NamedTuple):
    """An insert of ``subtree`` under ``anchor_id`` and its expected new ids."""

    anchor_id: int
    subtree: XmlElement
    new_ids: Tuple[int, ...]


class Plan(NamedTuple):
    """Everything one run needs, derived from the workload and the seed."""

    workload: Workload
    seed: int
    xml_text: str
    rotation: List[Op]
    edits: List[Edit]
    #: (query, edit index or -1 for the base document) -> expected node ids.
    references: Dict[Tuple[str, int], Tuple[int, ...]]
    inputs: Dict[str, object]


def make_document(elements: int, seed: int) -> XmlDocument:
    """The seeded document in bench._concurrency_document's shape."""
    return generate_random_document(RandomXmlConfig(
        element_count=elements, tag_vocabulary_size=TAG_VOCABULARY,
        tag_skew=TAG_SKEW, max_depth=MAX_DEPTH, seed=seed))


def tag_frequencies(document: XmlDocument) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for element in document.iter():
        counts[element.tag] = counts.get(element.tag, 0) + 1
    return counts


class WorkModel:
    """The protocol's work per query, replayed on the plaintext tree.

    Evaluations and verification polynomials are what a served query
    costs the client, the wire and the server.  Zero tests are exact in
    ``F_p``, so replaying the descent on the plaintext tree (one exchange
    evaluates the frontier plus one speculated level, as the client's
    default lookahead asks) yields the counts the protocol reports.  The
    model only steers which inputs a seed gets; the program never sees it.
    """

    def __init__(self, document: XmlDocument, tags: Sequence[str]) -> None:
        elements = list(document.iter())
        position = {id(element): index for index, element in enumerate(elements)}
        self.children = [[position[id(child)] for child in element.children]
                         for element in elements]
        self.tags = [element.tag for element in elements]
        self.by_tag: Dict[str, List[int]] = {}
        for index, tag in enumerate(self.tags):
            self.by_tag.setdefault(tag, []).append(index)
        self.bits = {tag: 1 << index for index, tag in enumerate(tags)}
        self.below = [0] * len(elements)
        for index in reversed(range(len(elements))):      # children first
            mask = self.bits.get(self.tags[index], 0)
            for child in self.children[index]:
                mask |= self.below[child]
            self.below[index] = mask

    def _descend(self, start: Sequence[int], want: int) -> Tuple[int, List[int]]:
        """Evaluations and zero nodes of a descent holding every ``want`` bit."""
        received: set = set()
        evaluations = 0
        zero: List[int] = []
        frontier = list(start)
        while frontier:
            if any(node not in received for node in frontier):
                exchanged = set(frontier)
                for node in frontier:
                    exchanged.update(self.children[node])
                evaluations += len(exchanged)
                received |= exchanged
            alive = [node for node in frontier if self.below[node] & want == want]
            zero.extend(alive)
            frontier = [child for node in alive for child in self.children[node]]
        return evaluations, zero

    def _closure(self, nodes: Sequence[int]) -> int:
        fetched = set(nodes)
        for node in nodes:
            fetched.update(self.children[node])
        return len(fetched)

    def lookup(self, tag: str) -> int:
        """Evaluations plus polynomials of ``//tag`` with full verification."""
        evaluations, zero = self._descend([0], self.bits[tag])
        zero_set = set(zero)
        ambiguous = [node for node in zero
                     if any(child in zero_set for child in self.children[node])]
        return evaluations + self._closure(ambiguous)

    def xpath(self, first: str, second: str, descendant: bool) -> int:
        """Evaluations plus polynomials of ``//first//second`` or ``//first/second``."""
        first_bit, second_bit = self.bits[first], self.bits[second]
        evaluations, zero = self._descend([0], first_bit | second_bit)
        work = 2 * evaluations + self._closure(zero)
        anchored = [node for node in zero if self.tags[node] == first]
        starts = sorted({child for node in anchored for child in self.children[node]})
        if descendant:
            evaluations, zero = self._descend(starts, second_bit)
            return work + evaluations + self._closure(zero)
        alive = [node for node in starts if self.below[node] & second_bit]
        return work + len(starts) + self._closure(alive)

    def answers(self, first: str, second: str, child: bool) -> bool:
        """Whether ``//first/second`` (``child``) or ``//first//second`` has an answer."""
        second_bit = self.bits[second]
        return any(self.tags[node] == second if child else self.below[node] & second_bit
                   for parent in self.by_tag.get(first, ())
                   for node in self.children[parent])


class Choice(NamedTuple):
    """A document and the tags a seed queries on it."""

    distance: float
    document: XmlDocument
    document_seed: int
    lookups: List[str]
    #: The two steps of each XPath, ``//first//second`` or ``//first/second``.
    xpath_tags: List[Tuple[str, str]]
    work: Dict[str, int]


def choose_document(workload: "Workload", seed: int) -> Choice:
    """The seed's document, lookup tags and XPath tags.

    Lookups go to rare non-root tags, as the workloads require.  An XPath
    steps from the most frequent tag to the first lookup tag, or from one
    rare tag to another (``Workload.xpath_from_frequent``), and has an
    answer.  Taking the strictly rarest tags of one document would let the
    work per query follow the seed's tree shape by ±15%, and the spread
    between seeds would hide changes to the program.  So each seed yields
    ``Workload.candidate_documents`` documents of the same shape, and the one
    served is the document whose lookup tags and XPaths, among its
    :data:`TAG_POOL` rarest tags, come closest to fixed work targets.
    """
    lookup_target = workload.lookup_work_share * workload.elements
    xpath_target = workload.xpath_work_share * workload.elements
    count = workload.lookups_per_rotation
    child = workload.xpath_axis == "/"
    best = None
    for candidate in range(workload.candidate_documents):
        document_seed = seed * workload.candidate_documents + candidate
        document = make_document(workload.elements, document_seed)
        frequencies = tag_frequencies(document)
        tags = sorted((tag for tag in frequencies if tag != document.root.tag),
                      key=lambda tag: (frequencies[tag], tag))
        hot, pool = tags[-1], tags[:TAG_POOL]
        model = WorkModel(document, pool + [hot])
        work = {tag: model.lookup(tag) for tag in pool}
        firsts = [hot] if workload.xpath_from_frequent else pool
        xpath_work = {(first, second): model.xpath(first, second, descendant=not child)
                      for first in firsts for second in pool
                      if first != second and model.answers(first, second, child)}

        def lookup_miss(tag: str) -> float:
            return abs(work[tag] - lookup_target) / lookup_target

        def xpath_miss(pair: Tuple[str, str]) -> float:
            return abs(xpath_work[pair] - xpath_target) / xpath_target

        if workload.xpath_from_frequent:
            # //F//R ends on the first lookup tag and reuses its shares, so
            # the working set stays within both share caches.
            ranked = sorted(pool, key=lambda tag: (lookup_miss(tag), tag))
            options = [([second] + [tag for tag in ranked if tag != second][:count - 1],
                        [(first, second)]) for first, second in sorted(xpath_work)]

            def lookup_distance(lookups: List[str]) -> float:
                return sum(lookup_miss(tag) for tag in lookups) / len(lookups)
        else:
            # Runs of ``count`` tags in order of work.  A run's median and
            # its heaviest tag set lookup_p50_ms and lookup_p90_ms, so both
            # are held to targets, and a gap between the two middle tags
            # would put lookup_p50_ms on the boundary between two modes.
            by_work = sorted(pool, key=lambda tag: (work[tag], tag))
            pairs = sorted(xpath_work, key=lambda pair: (xpath_miss(pair), pair)
                           )[:workload.xpaths_per_rotation]
            options = [(by_work[start:start + count], pairs)
                       for start in range(len(by_work) - count + 1)]

            def lookup_distance(lookups: List[str]) -> float:
                works = [work[tag] for tag in lookups]
                middle = works[len(works) // 2] - works[len(works) // 2 - 1]
                return (abs(statistics.median(works) - lookup_target)
                        + abs(works[-1] - HEAVIEST_LOOKUP * lookup_target)
                        + middle) / lookup_target
        for lookups, pairs in options:
            if len(pairs) < workload.xpaths_per_rotation:
                continue
            distance = (lookup_distance(lookups)
                        + sum(xpath_miss(pair) for pair in pairs) / len(pairs))
            if best is None or distance < best.distance:
                chosen_work = {tag: work[tag] for tag in lookups}
                chosen_work.update({f"//{first}{workload.xpath_axis}{second}":
                                    xpath_work[first, second] for first, second in pairs})
                best = Choice(distance, document, document_seed, lookups, pairs, chosen_work)
    if best is None:
        raise RuntimeError(f"seed {seed}: no candidate document answers enough XPaths")
    return best


def edit_subtree(size: int, tags: Sequence[str], seed: int) -> XmlElement:
    """A seeded ``size``-node subtree over known tags (bench._update_subtree's shape)."""
    rng = random.Random(seed)
    root = XmlElement(tags[0])
    nodes = [root]
    for index in range(1, size):
        parent = nodes[rng.randrange(len(nodes))]
        nodes.append(parent.add(tags[(index * 7) % len(tags)]))
    return root


class _Mirror:
    """The plaintext document plus the scheme's node id of each element."""

    def __init__(self, document: XmlDocument) -> None:
        self.document = document
        # The scheme numbers the outsourced document in pre-order.
        self.node_id = {id(element): index
                        for index, element in enumerate(document.iter())}
        self.index = PlaintextSearchIndex(document)
        self._inserted: XmlElement = document.root

    def answer(self, query: str) -> Tuple[int, ...]:
        preorder = list(self.document.iter())
        positions = self.index.query(query).matches
        return tuple(sorted(self.node_id[id(preorder[position])]
                            for position in positions))

    def insert(self, anchor: XmlElement, subtree: XmlElement,
               first_id: int) -> Tuple[int, ...]:
        """Attach a copy of ``subtree``; new ids follow the editor's pre-order."""
        copy = subtree.clone()
        anchor.add_child(copy)
        ids = []
        for offset, element in enumerate(copy.iter()):
            self.node_id[id(element)] = first_id + offset
            ids.append(first_id + offset)
        self._inserted = copy
        return tuple(ids)

    def delete_inserted(self) -> None:
        """Detach the subtree the last :meth:`insert` attached."""
        self._inserted.detach()


def build_plan(workload: Workload, seed: int) -> Plan:
    """Derive the document, rotation, edits and reference answers from ``seed``."""
    choice = choose_document(workload, seed)
    document, lookups = choice.document, choice.lookups
    xml_text = serialize_document(document, indent=0)
    mirror = _Mirror(document)
    xpaths = [f"//{first}{workload.xpath_axis}{second}" for first, second in choice.xpath_tags]

    if workload.name == "cold-lookup":
        # An XPath after every lookup gives as many XPath samples as lookup
        # samples; the lookups in between keep it from running warm.
        rotation = [op for index, tag in enumerate(lookups)
                    for op in (Op("lookup", tag), Op("xpath", xpaths[index % len(xpaths)]))]
    else:
        (first, second), (xpath,) = lookups, xpaths
        rotation = [Op("lookup", first), Op("insert", ""),
                    Op("lookup", second, inserted=True), Op("xpath", xpath, inserted=True),
                    Op("delete", ""), Op("xpath", xpath)]

    anchors: List[XmlElement] = []
    if any(op.kind == "insert" for op in rotation):
        anchors = random.Random(seed).sample(
            [element for element in document.iter() if element.depth() == EDIT_DEPTH],
            EDIT_ANCHORS)
    # Subtrees are built from the document's own tags, the queried tags
    # first, so reads issued while one is inserted see new answers.
    queried = list(dict.fromkeys(lookups + [tag for pair in choice.xpath_tags
                                            for tag in pair]))
    by_rarity = queried + sorted(
        tag for tag in tag_frequencies(document)
        if tag not in queried and tag != document.root.tag)
    first_new_id = document.size()

    references: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    reads = {(op.target if op.kind == "xpath" else f"//{op.target}", op.inserted)
             for op in rotation if op.kind in ("lookup", "xpath")}
    for query, inserted in sorted(reads):
        if not inserted:
            references[(query, -1)] = mirror.answer(query)
    edits: List[Edit] = []
    for index, anchor in enumerate(anchors):
        subtree = edit_subtree(EDIT_SUBTREE_NODES, by_rarity,
                               seed=seed * EDIT_ANCHORS + index)
        new_ids = mirror.insert(anchor, subtree, first_new_id)
        for query, inserted in sorted(reads):
            if inserted:
                references[(query, index)] = mirror.answer(query)
        mirror.delete_inserted()
        edits.append(Edit(mirror.node_id[id(anchor)], subtree, new_ids))

    inputs = {
        "seed": seed,
        "document_seed": choice.document_seed,
        "elements": document.size(),
        "distinct_tags": len(tag_frequencies(document)),
        "lookup_tags": {tag: tag_frequencies(document)[tag] for tag in lookups},
        "modelled_work": choice.work,
        "work_targets": [round(workload.lookup_work_share * workload.elements),
                         round(workload.xpath_work_share * workload.elements)],
        "xpaths": xpaths,
        "edit_anchors": [edit.anchor_id for edit in edits],
        "edit_subtree_nodes": EDIT_SUBTREE_NODES,
        "rotation": [f"{op.kind}:{op.target}" for op in rotation],
    }
    return Plan(workload, seed, xml_text, rotation, edits, references, inputs)


def schedule(plan: Plan, rotations: int) -> List[Tuple[Op, int]]:
    """``rotations`` copies of the rotation as ``(op, edit index)`` pairs.

    Successive inserts cycle through :data:`EDIT_ANCHORS` (anchor, subtree)
    pairs; a delete removes the subtree the last insert added.
    """
    ops: List[Tuple[Op, int]] = []
    edit = -1
    for _ in range(rotations):
        for op in plan.rotation:
            if op.kind == "insert":
                edit = (edit + 1) % len(plan.edits)
            ops.append((op, max(edit, 0)))
    return ops


def rotations_for(workload: Workload, seconds: int) -> int:
    """The fixed rotation count of a run of ``seconds`` (at least one)."""
    return max(1, round(workload.rotations_per_second * seconds))


__all__ = ["WORKLOADS", "Workload", "Op", "Edit", "Plan", "build_plan",
           "schedule", "rotations_for", "WorkModel", "choose_document"]
