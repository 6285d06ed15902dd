"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.algebra import FpQuotientRing, IntQuotientRing, PrimeField, default_int_modulus
from repro.core import TagMapping, encode_document, outsource_document
from repro.prg import DeterministicPRG
from repro.workloads import (
    CatalogConfig,
    RandomXmlConfig,
    figure1_document,
    figure1_fp_ring,
    figure1_int_ring,
    figure1_mapping,
    generate_catalog_document,
    generate_random_document,
)


@pytest.fixture
def rng():
    """A deterministic Random instance."""
    return random.Random(0xDECAF)


@pytest.fixture
def f5():
    """The paper's prime field F_5."""
    return PrimeField(5)


@pytest.fixture
def f101():
    """A slightly larger prime field."""
    return PrimeField(101)


@pytest.fixture
def fp_ring():
    """The paper's F_5[x]/(x^4 - 1) ring."""
    return figure1_fp_ring()


@pytest.fixture
def int_ring():
    """The paper's Z[x]/(x^2 + 1) ring."""
    return figure1_int_ring()


@pytest.fixture
def paper_document():
    """The figure-1(a) document."""
    return figure1_document()


@pytest.fixture
def paper_mapping():
    """The figure-1(b) mapping."""
    return figure1_mapping()


@pytest.fixture
def paper_tree_fp(paper_document, paper_mapping, fp_ring):
    """The figure-2(a) polynomial tree."""
    return encode_document(paper_document, paper_mapping, fp_ring)


@pytest.fixture
def paper_tree_int(paper_document, paper_mapping, int_ring):
    """The figure-2(b) polynomial tree."""
    return encode_document(paper_document, paper_mapping, int_ring)


@pytest.fixture
def catalog_document():
    """A moderately sized realistic document."""
    return generate_catalog_document(CatalogConfig(customers=6, products=5, seed=11))


@pytest.fixture
def small_random_document():
    """A small random document with a modest tag vocabulary."""
    return generate_random_document(
        RandomXmlConfig(element_count=30, tag_vocabulary_size=5, seed=5))


@pytest.fixture
def outsourced_catalog(catalog_document):
    """(client, server_tree, tree) for the catalog document in an F_p ring."""
    return outsource_document(catalog_document, seed=b"test-seed")


@pytest.fixture
def prg():
    """A deterministic PRG with a fixed seed."""
    return DeterministicPRG(b"unit-test-seed")


@pytest.fixture
def share_backend(tmp_path):
    """Route server share trees through the ``REPRO_STORE_BACKEND`` backend.

    Yields a ``wrap(tree)`` callable.  With the default (``memory``)
    backend it returns the tree unchanged; with ``REPRO_STORE_BACKEND=
    sqlite`` — the CI matrix leg — it copies the tree into a durable
    :class:`~repro.net.store.SQLiteShareStore`, so the store-agnostic
    update and query tests exercise the durable backend on every push
    instead of only where a test opts in.
    """
    from repro.net import SQLiteShareStore

    backend = os.environ.get("REPRO_STORE_BACKEND", "memory")
    if backend not in ("memory", "sqlite"):
        raise RuntimeError(f"unknown REPRO_STORE_BACKEND {backend!r}")
    opened = []

    def wrap(tree):
        if backend != "sqlite":
            return tree
        path = str(tmp_path / f"backend-{len(opened)}.db")
        store = SQLiteShareStore.from_tree(path, tree)
        opened.append(store)
        return store

    yield wrap
    for store in opened:
        store.close()


class StoreGate:
    """Holds a store's first ``evaluate_many`` until the test opens it.

    :meth:`wrap` returns a :class:`~repro.net.FaultyStore` whose ``delay``
    rule on ``store:evaluate_many`` call 1 waits here instead of
    sleeping, so the first frontier pass blocks inside the store at a
    point the test controls: requests sent meanwhile queue behind it.
    """

    def __init__(self):
        import threading

        self.entered = threading.Event()
        self.opened = threading.Event()

    def wrap(self, tree):
        from repro.net import FaultPlan, FaultRule, FaultyStore

        plan = FaultPlan([FaultRule("store:evaluate_many", "delay", calls=[1])])
        return FaultyStore(tree, plan, sleep=self._hold)

    def _hold(self, _seconds):
        self.entered.set()
        assert self.opened.wait(timeout=30.0), "the store gate was never opened"

    def open(self):
        self.opened.set()

    @staticmethod
    def wait_for(predicate, timeout=10.0):
        """Poll until ``predicate()`` holds (fails the test after ``timeout``)."""
        import time

        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.001)


@pytest.fixture
def store_gate():
    """A fresh :class:`StoreGate`, opened at teardown so no thread hangs."""
    gate = StoreGate()
    yield gate
    gate.open()
