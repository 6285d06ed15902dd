"""Client share regeneration a frontier at a time.

On the vectorized kernel tier :class:`ClientShareGenerator` derives every
uncached node of a batch in one bulk pass (:meth:`XofStream.fork_residues`)
and serves the batch as one int64 block.  The per-node derivation
(``random_element_from_stream(root.fork(node_id))``, what :meth:`share_for`
runs) stays the reference; these tests hold the bulk rows to it:

* golden digests recorded from the per-node derivation pin the derivation
  itself (they run with and without numpy); ``tests/test_share_spec.py``
  recomputes shares from its written spec;
* hypothesis cases compare rows across primes with 1- and 2-byte limbs,
  duplicate ids, empty batches, disabled caches, hit/miss mixes and
  eviction, plus 1- to 4-byte limbs at the stream level, rows whose first
  SHAKE call comes back short (a forced small request) and one 3-byte
  prime;
* the selection rule, the small-batch threshold, the bounded blocks of
  whole-tree passes and the one shared cache are checked directly, and a
  threaded stress test shares one generator between overlapping frontiers.

Only the bulk cases need numpy; the reference cases run everywhere.
"""

import contextlib
import hashlib
import os
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    FpQuotientRing,
    IntQuotientRing,
    default_int_modulus,
    use_kernels,
    use_vector_kernels,
)
from repro.algebra.poly import Polynomial
from repro.algebra.vkernels import numpy_or_none
from repro.core.encoder import PolynomialTree
from repro.core.share_tree import (
    BULK_BLOCK_COEFFS,
    BULK_MIN_COEFFS,
    ClientShareGenerator,
    reconstruct_tree,
    share_tree,
)
from repro.prg import DeterministicPRG, XofStream

share_tree_module = sys.modules["repro.core.share_tree"]
prg_module = sys.modules["repro.prg.prg"]

numpy_present = pytest.mark.skipif(numpy_or_none() is None,
                                   reason="the bulk derivation needs numpy")

#: SHA-256 over the 4-byte big-endian coefficients of GOLDEN_IDS' rows
#: (zero-padded to p - 1), recorded from the per-node derivation of
#: ``shake256-xof-v3``.  A change here changes every client share.
GOLDEN = {
    53: (b"golden-53",
         "f6314a3a5c3a84347a018ddbff479c5de9161e9ce6aef18f34bd5638dfe40304"),
    251: (b"golden-251",
          "15b9a09b00b35ccfe59395f71cbc4d75b8dedd94cc7cffbc2037ee96c651c0f7"),
    1021: (b"golden-1021",
           "33744fe1457a687e9dd3fd81df7b2a63a16b63c76af84b37f09a4961d6b22f78"),
}
GOLDEN_IDS = list(range(64)) + [1000, 65535, 65536, 10 ** 6]


def padded(share, width):
    """A share's coefficients zero-padded to ``width``."""
    coeffs = list(share.coeffs)
    return coeffs + [0] * (width - len(coeffs))


def reference_rows(ring, prg, node_ids):
    """Per-node rows: ``random_element_from_stream(root.fork(node_id))``."""
    reference = ClientShareGenerator(ring, prg, cache_size=0)
    return [padded(reference.share_for(node_id), ring.p - 1)
            for node_id in node_ids]


def digest(rows):
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(b"".join(int(c).to_bytes(4, "big") for c in row))
    return hasher.hexdigest()


def retries(root, label, count, bound, limbs):
    """SHAKE calls past the first that a draw of ``count`` values makes
    when its first call asks for ``limbs`` limbs (a retry doubles it)."""
    n_bytes = (bound.bit_length() + 7) // 8
    shift = 8 * n_bytes - bound.bit_length()
    output = root.fork(label)._sponge.digest((limbs << 8) * n_bytes)
    accepted = [int.from_bytes(output[i:i + n_bytes], "big") >> shift < bound
                for i in range(0, len(output), n_bytes)]
    for extra in range(9):
        if sum(accepted[:limbs << extra]) >= count:
            return extra
    raise AssertionError("more than eight retries")


def first_request(limbs):
    """Make every draw's first SHAKE call ask for ``limbs`` limbs."""
    return mock.patch.object(prg_module, "_first_limbs",
                             lambda count, bound: limbs)


def always_bulk():
    """Derive every miss in bulk, however small the batch."""
    return mock.patch.object(share_tree_module, "BULK_MIN_COEFFS", 0)


class TestReference:
    """The per-node path: runs with and without numpy."""

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_golden_digests(self, p):
        seed, expected = GOLDEN[p]
        ring = FpQuotientRing(p)
        assert digest(reference_rows(ring, DeterministicPRG(seed),
                                     GOLDEN_IDS)) == expected

    @pytest.mark.parametrize("tier", ["generic", "flat", "served"])
    def test_batches_equal_single_nodes_on_every_tier(self, tier):
        ring = FpQuotientRing(53)
        prg = DeterministicPRG(b"tiers")
        node_ids = list(range(40)) + [3, 3]
        kernels = tier != "generic"
        vectors = tier == "served"
        with use_kernels(kernels), use_vector_kernels(vectors):
            generator = ClientShareGenerator(ring, prg)
            values = generator.evaluate_points(node_ids, [2, 7])
            shares = generator.shares_for(node_ids)
            in_order = list(generator.iter_shares(node_ids))
            reference = ClientShareGenerator(ring, prg, cache_size=0)
            for point in (2, 7):
                assert values[point] == [reference.evaluate(node_id, point)
                                         for node_id in node_ids]
                assert all(type(value) is int for value in values[point])
            assert shares == {node_id: reference.share_for(node_id)
                              for node_id in node_ids}
            assert in_order == [(node_id, reference.share_for(node_id))
                                for node_id in node_ids]

    def test_no_row_form_off_the_vectorized_tier(self):
        ring = FpQuotientRing(53)
        generator = ClientShareGenerator(ring, DeterministicPRG(b"off"))
        with use_vector_kernels(False):
            assert generator.share_rows([1, 2, 3]) is None
        with use_kernels(False):
            assert generator.share_rows([1, 2, 3]) is None
        int_ring = IntQuotientRing(default_int_modulus(3))
        int_generator = ClientShareGenerator(int_ring, DeterministicPRG(b"z"))
        assert int_generator.share_rows([1, 2]) is None
        values = int_generator.evaluate_points([1, 2, 2], [2])
        assert values == {2: [int_generator.evaluate(node_id, 2)
                              for node_id in (1, 2, 2)]}

    def test_empty_batches(self):
        generator = ClientShareGenerator(FpQuotientRing(53),
                                         DeterministicPRG(b"empty"))
        assert generator.evaluate_points([], [3, 4]) == {3: [], 4: []}
        assert generator.evaluate_many([], 3) == {}
        assert generator.shares_for([]) == {}


@numpy_present
class TestBulkRows:
    """Bulk rows against the per-node reference."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([5, 53, 131, 251, 257, 1021]),
           node_ids=st.lists(st.integers(0, 2 ** 40), max_size=24),
           warm=st.lists(st.integers(0, 40), max_size=8),
           cache_size=st.sampled_from([0, 1, 5, 1024]),
           bulk=st.booleans())
    def test_rows_match_reference(self, p, node_ids, warm, cache_size, bulk):
        node_ids = node_ids + warm[:3]          # duplicates and warm hits
        ring = FpQuotientRing(p)
        prg = DeterministicPRG(b"bulk-rows")
        generator = ClientShareGenerator(ring, prg, cache_size=cache_size)
        for node_id in warm:
            generator.share_for(node_id)         # Polynomial entries
        expected = reference_rows(ring, prg, node_ids)
        with always_bulk() if bulk else contextlib.nullcontext():
            first = generator.share_rows(node_ids)
            second = generator.share_rows(node_ids)    # row entries as hits
        assert first.shape == (len(node_ids), p - 1)
        assert first.dtype == numpy_or_none().int64
        assert first.tolist() == expected
        assert second.tolist() == expected
        assert len(generator._cache) <= cache_size
        for node_id, row in zip(node_ids, expected):
            assert padded(generator.share_for(node_id), p - 1) == row

    @settings(max_examples=80, deadline=None)
    @given(labels=st.lists(st.integers(0, 2 ** 32), max_size=12),
           count=st.integers(0, 70),
           bound=st.one_of(st.integers(1, 2 ** 8),
                           st.integers(2 ** 8 + 1, 2 ** 16),
                           st.integers(2 ** 16 + 1, 2 ** 24),
                           st.integers(2 ** 24 + 1, 2 ** 32 - 1)),
           first=st.sampled_from([None, 1, 2, 5, 40]))
    def test_stream_rows_match_residues(self, labels, count, bound, first):
        """1- to 4-byte limbs, with the default first request or a forced
        small one, after which most rows come back short."""
        root = XofStream(b"stream-rows").fork("node-share")
        forced = (contextlib.nullcontext() if first is None
                  else first_request(first))
        with forced:
            rows = root.fork_residues(labels, count, bound)
            expected = [root.fork(label).residues(count, bound)
                        for label in labels]
        assert rows.shape == (len(labels), count)
        assert rows.tolist() == expected
        assert expected == [root.fork(label).residues(count, bound)
                            for label in labels]     # any request length

    @pytest.mark.parametrize("bound", [(1 << 7) + 3, (1 << 15) + 5,
                                       (1 << 23) + 9, (1 << 31) + 11])
    def test_short_first_calls_at_every_width(self, bound):
        """Half the limbs rejected and a first call of exactly ``count``
        limbs: every row comes back short and needs one or two retries, and
        bulk equals per-node for 1- to 4-byte limbs."""
        root = XofStream(b"short-calls").fork("node-share")
        labels = list(range(40))
        assert {retries(root, label, 50, bound, 50)
                for label in labels} == {1, 2}
        with first_request(50):
            rows = root.fork_residues(labels, 50, bound).tolist()
            assert rows == [root.fork(label).residues(50, bound)
                            for label in labels]
        assert rows == root.fork_residues(labels, 50, bound).tolist()

    def test_three_byte_prime(self):
        p = 65537                                # 17 bits: 3-byte limbs
        ring = FpQuotientRing(p)
        prg = DeterministicPRG(b"three-byte-prime")
        generator = ClientShareGenerator(ring, prg)
        with always_bulk():
            rows = generator.share_rows([7, 8])
        assert rows.tolist() == reference_rows(ring, prg, [7, 8])

    @pytest.mark.parametrize("p, limbs, extras", [(53, 63, (0, 1)),
                                                   (53, 16, (2, 3)),
                                                   (131, 128, (1, 2))])
    def test_rows_needing_retries(self, p, limbs, extras):
        """Node ids whose draw needs ``extras`` SHAKE calls past a first one
        of ``limbs`` limbs, derived in one batch."""
        ring = FpQuotientRing(p)
        prg = DeterministicPRG(b"retries")
        generator = ClientShareGenerator(ring, prg)
        root = generator._share_root
        picked = {}
        for node_id in range(2000):
            extra = retries(root, node_id, p - 1, p, limbs)
            if extra in extras:
                picked.setdefault(extra, node_id)
                if len(picked) == len(extras):
                    break
        assert sorted(picked) == list(extras)
        node_ids = [picked[extra] for extra in extras]
        with always_bulk(), first_request(limbs):
            rows = generator.share_rows(node_ids)
        assert rows.tolist() == reference_rows(ring, prg, node_ids)

    def test_golden_digests_in_bulk(self):
        for p, (seed, expected) in GOLDEN.items():
            generator = ClientShareGenerator(FpQuotientRing(p),
                                             DeterministicPRG(seed))
            with always_bulk():
                assert digest(generator.share_rows(GOLDEN_IDS).tolist()) == expected

    def test_evaluations_and_shares_match_reference(self):
        ring = FpQuotientRing(251)
        prg = DeterministicPRG(b"values")
        node_ids = list(range(30)) + [4, 4]
        generator = ClientShareGenerator(ring, prg)
        reference = ClientShareGenerator(ring, prg, cache_size=0)
        values = generator.evaluate_points(node_ids, [3, 9])
        for point in (3, 9):
            assert values[point] == [reference.evaluate(node_id, point)
                                     for node_id in node_ids]
            assert all(type(value) is int for value in values[point])
        fresh = ClientShareGenerator(ring, prg)
        shares = fresh.shares_for(node_ids)
        for node_id, share in shares.items():
            assert share == reference.share_for(node_id)
            assert all(type(c) is int for c in share.coeffs)


@numpy_present
class TestSelectionAndCache:
    """When the bulk path runs, and what the one cache holds."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        """Label counts of every bulk derivation."""
        calls = []
        original = XofStream.fork_residues

        def recorded(stream, labels, count, bound):
            calls.append(len(labels))
            return original(stream, labels, count, bound)

        monkeypatch.setattr(XofStream, "fork_residues", recorded)
        return calls

    def test_switches_keep_the_per_node_path(self, spy):
        ring = FpQuotientRing(1021)
        generator = ClientShareGenerator(ring, DeterministicPRG(b"switch"))
        with use_vector_kernels(False):
            generator.evaluate_points(list(range(50)), [5])
            generator.shares_for(range(50, 100))
        with use_kernels(False):
            generator.evaluate_points(list(range(100, 150)), [5])
        assert spy == []
        generator.evaluate_points(list(range(150, 200)), [5])
        assert spy == [50]

    def test_small_batches_derive_node_by_node(self, spy):
        ring = FpQuotientRing(53)
        generator = ClientShareGenerator(ring, DeterministicPRG(b"small"))
        below = BULK_MIN_COEFFS // (ring.p - 1)
        generator.share_rows(list(range(below)))
        generator.share_for(1000)
        assert spy == []
        generator.share_rows(list(range(below)) + list(range(100, 100 + below + 1)))
        assert spy == [below + 1]              # hits are not re-derived

    def test_whole_tree_passes_hold_one_bounded_block(self, spy):
        ring = FpQuotientRing(1021)
        prg = DeterministicPRG(b"bounded")
        rows_per_block = BULK_BLOCK_COEFFS // (ring.p - 1)
        tree = PolynomialTree(ring)
        tree.add_node(0, None, ring.from_tag_value(1), 0)
        for node_id in range(1, 2 * rows_per_block + 7):
            tree.add_node(node_id, 0, ring.from_tag_value(2), 1)
        generator = ClientShareGenerator(ring, prg, cache_size=16)
        shares = generator.iter_shares(range(len(tree.nodes)))
        assert next(shares)[0] == 0
        assert spy == [rows_per_block]             # one block, not the tree
        assert [node_id for node_id, _ in shares] == list(
            range(1, len(tree.nodes)))
        assert spy == [rows_per_block, rows_per_block, 7]
        assert len(generator._cache) == 16
        spy.clear()
        generator, server = share_tree(tree, prg, generator)
        rebuilt = reconstruct_tree(generator, server)
        assert spy and max(spy) <= rows_per_block
        assert all(rebuilt.polynomial(node_id) == node.polynomial
                   for node_id, node in tree.nodes.items())

    def test_one_cache_for_both_forms(self, spy):
        """share_for and the row paths read and fill one row cache."""
        ring = FpQuotientRing(251)
        prg = DeterministicPRG(b"one-cache")
        generator = ClientShareGenerator(ring, prg, cache_size=8)
        generator.share_for(1)                     # cached as a row
        rows = generator.share_rows(list(range(1, 11)))
        assert spy == [9]                          # node 1 was a hit
        assert (generator.cache_hits, generator.cache_misses) == (1, 10)
        assert [node_id for node_id in range(1, 11)
                if node_id in generator._cache] == list(range(3, 11))
        expected = rows.copy()
        rows[:] = 0                                # the caller's copy only
        share = generator.share_for(10)            # a row serves it
        assert isinstance(share, Polynomial)
        assert padded(share, 250) == expected[-1].tolist()
        shares = generator.shares_for(range(3, 11))
        assert [padded(shares[node_id], 250) for node_id in range(3, 11)
                ] == expected[2:].tolist()
        generator.evaluate_points(list(range(3, 11)), [2])
        assert generator.share_rows(list(range(3, 11))).tolist() == \
            expected[2:].tolist()
        assert spy == [9]                          # every later call hit
        assert (generator.cache_hits, generator.cache_misses) == (1 + 1 + 3 * 8, 10)
        assert len(generator._cache) == 8

    def test_disabled_cache_keeps_nothing(self, spy):
        ring = FpQuotientRing(1021)
        generator = ClientShareGenerator(ring, DeterministicPRG(b"none"),
                                         cache_size=0)
        generator.share_rows([1, 2, 3])
        generator.share_rows([1, 2, 3])
        generator.shares_for([1, 2])
        assert spy == [3, 3, 2]
        assert len(generator._cache) == 0


@numpy_present
def test_shared_generator_under_threads():
    """Overlapping frontiers on one generator from more threads than cores.

    Every frontier is larger than the cache, so gathers race miss fills
    that evict and reuse the slots other sessions are reading; rows must
    still come out right, and every cached slot must hold its id's row.
    """
    ring = FpQuotientRing(53)
    prg = DeterministicPRG(b"threads")
    cache_size = 48
    generator = ClientShareGenerator(ring, prg, cache_size=cache_size)
    frontiers = [list(range(start, start + 60)) for start in range(0, 240, 20)]
    expected = {index: reference_rows(ring, prg, frontier)
                for index, frontier in enumerate(frontiers)}
    failures = []
    deadline = time.monotonic() + 2.0

    def session(offset):
        try:
            step = offset
            while time.monotonic() < deadline:
                index = step % len(frontiers)
                frontier = frontiers[index]
                step += 1
                if step % 4 == 0:
                    values = generator.evaluate_points(frontier, [5])[5]
                    assert values == [ring.evaluate(
                        Polynomial(row, ring.field), 5)
                        for row in expected[index]]
                elif step % 4 == 1:
                    assert generator.share_rows(frontier).tolist() == expected[index]
                elif step % 4 == 2:
                    shares = generator.shares_for(frontier)
                    assert [padded(shares[node_id], 52) for node_id in frontier
                            ] == expected[index]
                else:
                    picked = frontier[step % 7::7]
                    assert [padded(generator.share_for(node_id), 52)
                            for node_id in picked] == expected[index][step % 7::7]
                with generator._cache_lock:
                    assert len(generator._cache) <= cache_size
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=session, args=(index,))
               for index in range(min(16, 2 * (os.cpu_count() or 1) + 2))]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    cache = generator._cache
    assert len(cache) <= cache_size
    assert generator.cache_hits > 0 and generator.cache_misses > 0
    cached = list(cache._order.items())
    assert len({slot for _, slot in cached}) == len(cached)
    assert cache._slots[[slot for _, slot in cached]].tolist() == \
        reference_rows(ring, prg, [node_id for node_id, _ in cached])
