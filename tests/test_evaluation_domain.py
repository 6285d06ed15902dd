"""Differential tests: evaluation-domain verification vs per-node ``recover_tag``.

FULL verification solves every candidate of a query in one pass of array
arithmetic over ``F_p^{p-1}`` (:mod:`repro.algebra.evaldomain`) when the
vectorized kernel tier is active.  Per-node
:meth:`~repro.algebra.quotient.EncodingRing.recover_tag` stays the
reference: these tests run the same verification twice — once as served,
once with the vectorized tier switched off — over honest trees and over
tampered server rows (changed coefficients, zero children products,
unreduced values, over-long rows), and require the same confirmed and
rejected lists or the same first failing node.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import FpQuotientRing
from repro.algebra.evaldomain import EvaluationDomain
from repro.algebra.primes import next_prime, previous_prime
from repro.algebra.vkernels import (
    fits_native_width,
    numpy_or_none,
    use_vector_kernels,
)
from repro.baselines.plaintext import PlaintextSearchIndex
from repro.core import outsource_document
from repro.core.query import QueryEngine, QueryStats, ServerInterface
from repro.errors import VerificationError
from repro.net import connect_in_process
from repro.workloads import RandomXmlConfig, generate_random_document

needs_numpy = pytest.mark.skipif(numpy_or_none() is None,
                                 reason="the evaluation domain needs numpy")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def largest_native_prime():
    """The largest prime whose arithmetic fits the int64 kernel tier."""
    p = previous_prime(3_037_000_502)
    while not fits_native_width(p):
        p = previous_prime(p)
    return p


#: The largest prime the evaluation domain serves (p - 1 <= MAX_POINTS).
LARGEST_DOMAIN_PRIME = previous_prime(EvaluationDomain.MAX_POINTS + 2)

#: One ring per prime, so each power table is built once per test run.
RINGS = {p: FpQuotientRing(p) for p in (5, 7, 53, LARGEST_DOMAIN_PRIME)}


class RowServer(ServerInterface):
    """Serves fixed child lists and (possibly tampered) share rows."""

    def __init__(self, children, rows):
        self.children = children
        self.rows = rows

    def root_id(self):
        raise NotImplementedError

    def node_count(self):
        return len(self.rows)

    def children_of(self, node_ids):
        return {node_id: list(self.children[node_id]) for node_id in node_ids}

    def evaluate(self, node_ids, point):
        raise NotImplementedError

    def fetch_polynomials(self, node_ids):
        raise NotImplementedError

    def fetch_polynomial_rows(self, node_ids):
        return {node_id: self.rows[node_id] for node_id in node_ids}

    def fetch_constants(self, node_ids):
        raise NotImplementedError

    def prune(self, node_ids):
        pass


class FixedShares:
    """The client's shares, handed out as-is."""

    def __init__(self, shares):
        self.shares = shares

    def share_for(self, node_id):
        return self.shares[node_id]


def verify(ring, shares, children, rows, candidates, point):
    """Run FULL verification; the outcome or the failure's text."""
    engine = QueryEngine(ring, None, FixedShares(shares),
                         RowServer(children, rows))
    try:
        return engine._verify_full(candidates, point, QueryStats())
    except VerificationError as exc:
        return ("error", str(exc), str(exc.__cause__))


def random_tree(rng, size):
    """Parent pointers of a random rooted tree on nodes ``0..size-1``."""
    children = {node_id: [] for node_id in range(size)}
    for node_id in range(1, size):
        children[rng.randrange(node_id)].append(node_id)
    return children


def encode(ring, children, tags):
    """Node polynomials ``f = (x - t)·∏ f(child)``, bottom-up."""
    polynomials = {}
    for node_id in sorted(children, reverse=True):
        product = ring.product([polynomials[c] for c in children[node_id]])
        polynomials[node_id] = ring.mul(product, ring.from_tag_value(tags[node_id]))
    return polynomials


def split_zero_divisors(ring, rng):
    """Two nonzero elements whose product is zero in the ring."""
    points = list(range(1, ring.p))
    rng.shuffle(points)
    cut = rng.randrange(1, len(points))
    left = ring.product([ring.from_tag_value(a) for a in points[:cut]])
    right = ring.product([ring.from_tag_value(a) for a in points[cut:]])
    return left, right


TAMPERINGS = ("coefficient", "zero-child", "zero-divisors", "out-of-range",
              "negative", "beyond-int64", "too-long", "non-int")


def build_case(p, seed, tamperings):
    ring = RINGS[p]
    rng = random.Random(seed)
    size = rng.randint(1, 9)
    children = random_tree(rng, size)
    tag_pool = [rng.randint(1, p - 2) for _ in range(3)]
    tags = {node_id: rng.choice(tag_pool) for node_id in children}
    full = encode(ring, children, tags)
    shares = {node_id: ring.random_element(rng) for node_id in children}
    rows = {}
    for node_id, polynomial in full.items():
        row = list(ring.sub(polynomial, shares[node_id]).coeffs)
        rows[node_id] = row + [0] * (p - 1 - len(row))
    candidates = sorted(rng.sample(sorted(children), rng.randint(1, size)))
    parents_of_kids = [n for n in candidates if children[n]]
    for kind in tamperings:
        node_id = rng.choice(sorted(children))
        row = rows[node_id]
        index = rng.randrange(p - 1)
        if kind == "coefficient":
            row[index] = (row[index] + rng.randint(1, p - 1)) % p
        elif kind == "zero-child" and parents_of_kids:
            child = rng.choice(children[rng.choice(parents_of_kids)])
            rows[child] = list(ring.neg(shares[child]).coeffs)
        elif kind == "zero-divisors":
            pairs = [n for n in candidates if len(children[n]) >= 2]
            if pairs:
                first, second = children[rng.choice(pairs)][:2]
                for child, target in zip((first, second),
                                         split_zero_divisors(ring, rng)):
                    rows[child] = list(ring.sub(target, shares[child]).coeffs)
        elif kind == "out-of-range":
            row[index] += p * rng.randint(1, 5)
        elif kind == "negative":
            row[index] -= p * rng.randint(1, 5)
        elif kind == "beyond-int64":
            row[index] += p * (1 << 70)
        elif kind == "too-long":
            row.extend(rng.randrange(p) for _ in range(rng.randint(1, 2 * p)))
        elif kind == "non-int":
            row[index] = bool(row[index] % 2)
    point = rng.choice(tag_pool)
    return ring, shares, children, rows, candidates, point


@needs_numpy
class TestDifferential:
    @settings(max_examples=160, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=st.sampled_from(sorted(RINGS)),
           seed=st.integers(0, 2 ** 32),
           tamperings=st.lists(st.sampled_from(TAMPERINGS), max_size=2))
    def test_same_outcome_as_recover_tag(self, p, seed, tamperings):
        ring, shares, children, rows, candidates, point = build_case(
            p, seed, tamperings)
        assert ring.evaluation_domain() is not None
        served = verify(ring, shares, children, rows, candidates, point)
        with use_vector_kernels(False):
            assert ring.evaluation_domain() is None
            reference = verify(ring, shares, children, rows, candidates, point)
        assert served == reference

    def test_honest_trees_confirm_and_reject(self):
        ring, shares, children, rows, candidates, point = build_case(53, 1, [])
        confirmed, rejected = verify(ring, shares, children, rows,
                                     list(children), point)
        assert confirmed and rejected
        assert sorted(confirmed + rejected) == sorted(children)

    def test_every_tampering_kind_can_fail_verification(self):
        failures = set()
        for kind in ("coefficient", "zero-child", "zero-divisors"):
            for seed in range(200):
                ring, shares, children, rows, candidates, point = build_case(
                    7, seed, [kind])
                outcome = verify(ring, shares, children, rows, candidates, point)
                if outcome[0] == "error":
                    failures.add((kind, outcome[2]))
        messages = {message for _, message in failures}
        assert {kind for kind, _ in failures} == {
            "coefficient", "zero-child", "zero-divisors"}
        assert any("no non-trivial equation" in m for m in messages)
        assert any("inconsistent" in m for m in messages)


class TestTierChoice:
    def test_largest_native_prime_keeps_recover_tag(self):
        p = largest_native_prime()
        assert fits_native_width(p) and not fits_native_width(next_prime(p))
        ring = FpQuotientRing(p)
        assert ring.evaluation_domain() is None

    @needs_numpy
    def test_largest_domain_prime_is_served(self):
        assert next_prime(LARGEST_DOMAIN_PRIME) - 1 > EvaluationDomain.MAX_POINTS
        assert RINGS[LARGEST_DOMAIN_PRIME].evaluation_domain() is not None

    def test_int_ring_has_no_evaluation_domain(self, int_ring):
        assert int_ring.evaluation_domain() is None


def count_recover_calls(ring):
    calls = []
    recover = ring.recover_tag

    def counted(element, children):
        calls.append(1)
        return recover(element, children)

    ring.recover_tag = counted
    return calls


@pytest.fixture(scope="module")
def served_document():
    document = generate_random_document(
        RandomXmlConfig(element_count=160, tag_vocabulary_size=12, seed=7))
    client, tree, _ = outsource_document(document, seed=b"eval-domain")
    return document, client, tree


def wire_matches(client, tree, document):
    adapter, _, _ = connect_in_process(tree)
    return {tag: client.lookup(adapter, tag).matches
            for tag in sorted(document.distinct_tags())}


@needs_numpy
class TestServedLookups:
    def test_wire_lookups_match_reference_and_plaintext(self, served_document):
        document, client, tree = served_document
        calls = count_recover_calls(client.ring)
        try:
            served = wire_matches(client, tree, document)
            assert not calls, "the vectorized tier must not call recover_tag"
            with use_vector_kernels(False):
                reference = wire_matches(client, tree, document)
            assert calls, "the reference run must call recover_tag"
        finally:
            del client.ring.recover_tag
        plaintext = PlaintextSearchIndex(document)
        assert served == reference == {
            tag: plaintext.lookup(tag).matches for tag in served}


def test_reference_path_runs_without_numpy(served_document):
    """With numpy disabled the flat tier verifies through recover_tag."""
    document, _, _ = served_document
    script = textwrap.dedent("""
        import json
        from repro.algebra.vkernels import numpy_or_none
        from repro.core import outsource_document
        from repro.workloads import RandomXmlConfig, generate_random_document

        document = generate_random_document(
            RandomXmlConfig(element_count=160, tag_vocabulary_size=12, seed=7))
        client, tree, _ = outsource_document(document, seed=b"eval-domain")
        ring = client.ring
        calls = []
        recover = ring.recover_tag

        def counted(element, children):
            calls.append(1)
            return recover(element, children)

        ring.recover_tag = counted
        matches = {tag: client.lookup(tree, tag).matches
                   for tag in sorted(document.distinct_tags())}
        print(json.dumps({
            "numpy": numpy_or_none() is not None,
            "domain": ring.evaluation_domain() is not None,
            "kernel": type(ring.field.kernel()).__name__,
            "recover_calls": len(calls),
            "matches": matches,
        }))
    """)
    env = dict(os.environ, REPRO_DISABLE_NUMPY="1", PYTHONPATH=SRC)
    result = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=300).stdout.strip().splitlines()[-1])
    assert result["numpy"] is False
    assert result["domain"] is False
    assert result["kernel"] == "FpKernel"
    assert result["recover_calls"] > 0
    plaintext = PlaintextSearchIndex(document)
    assert result["matches"] == {
        tag: plaintext.lookup(tag).matches
        for tag in sorted(document.distinct_tags())}


def test_coefficient_matrix_routes_untrusted_rows_through_the_reference():
    if numpy_or_none() is None:
        pytest.skip("the evaluation domain needs numpy")
    ring = RINGS[7]
    domain = ring.evaluation_domain()

    def reduce(row):
        return ring.from_coefficients(row).coeffs

    honest = [[1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 1]]
    assert domain.coefficient_matrix(honest, reduce).tolist() == honest
    hostile = [[8, -1, 1 << 70, 0, 0, 0], [1, 2, 3, 4, 5, 6, 3, 1], [True, 2]]
    assert domain.coefficient_matrix(hostile, reduce).tolist() == [
        list(ring.from_coefficients(row).coeffs)
        + [0] * (6 - len(ring.from_coefficients(row).coeffs))
        for row in hostile]
    with pytest.raises(Exception) as reference_error:
        ring.from_coefficients([1, "x"])
    with pytest.raises(type(reference_error.value)):
        domain.coefficient_matrix([[1, 2], [1, "x"]], reduce)
