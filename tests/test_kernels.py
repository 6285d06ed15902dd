"""Property tests: the kernel fast path is bit-identical to the generic path.

Every assertion compares an operation computed with kernels enabled (the
default) against the same operation computed inside ``use_kernels(False)``,
which forces the generic per-element reference implementation everywhere.
Randomized loops cover ``F_p`` (several characteristics), ``Z`` and
``F_{p^e}``, plus the zero/constant/degree-bound edge cases and the two
quotient rings' reductions.
"""

import random

import pytest

from repro.algebra import (
    ExtensionField,
    FpQuotientRing,
    IntQuotientRing,
    Polynomial,
    PrimeField,
    ZZ,
    default_int_modulus,
    kernels_enabled,
    use_kernels,
)
from repro.algebra.kernels import KARATSUBA_CUTOFF
from repro.core import outsource_document
from repro.core.share_tree import ClientShareGenerator
from repro.prg import DeterministicPRG
from repro.workloads import RandomXmlConfig, generate_random_document

PRIMES = [2, 3, 5, 13, 97, 10007]


def random_poly(rng, ring, max_len, span=10 ** 6):
    return Polynomial([rng.randrange(-span, span) for _ in range(rng.randrange(max_len))],
                      ring)


def generic(op, *polys):
    """Recompute ``op`` over copies of ``polys`` with every kernel disabled."""
    with use_kernels(False):
        copies = [Polynomial(p.coeffs, p.ring) for p in polys]
        return op(*copies)


def assert_same(fast, slow):
    if isinstance(fast, Polynomial):
        assert isinstance(slow, Polynomial)
        assert fast.coeffs == slow.coeffs and fast.ring == slow.ring
    elif isinstance(fast, tuple):
        for f, s in zip(fast, slow):
            assert_same(f, s)
        assert len(fast) == len(slow)
    else:
        assert fast == slow


class TestKernelSwitch:
    def test_flag_toggles_and_restores(self):
        assert kernels_enabled()
        assert PrimeField(5).kernel() is not None
        assert ZZ.kernel() is not None
        with use_kernels(False):
            assert not kernels_enabled()
            assert PrimeField(5).kernel() is None
            assert ZZ.kernel() is None
        assert kernels_enabled()

    def test_extension_field_has_no_polynomial_kernel(self):
        assert ExtensionField(3, 2).kernel() is None


class TestPolynomialAgreement:
    @pytest.mark.parametrize("p", PRIMES)
    def test_fp_ring_ops_agree(self, p):
        ring = PrimeField(p)
        rng = random.Random(p)
        # Large enough lengths to cross the Karatsuba cutoff several times.
        for max_len in (1, 2, 5, KARATSUBA_CUTOFF + 5, 3 * KARATSUBA_CUTOFF):
            for _ in range(8):
                a = random_poly(rng, ring, max_len)
                b = random_poly(rng, ring, max_len)
                scalar = rng.randrange(-50, 50)
                point = rng.randrange(-50, 50)
                assert_same(a + b, generic(lambda x, y: x + y, a, b))
                assert_same(a - b, generic(lambda x, y: x - y, a, b))
                assert_same(-a, generic(lambda x: -x, a))
                assert_same(a * b, generic(lambda x, y: x * y, a, b))
                assert_same(a * scalar, generic(lambda x: x * scalar, a))
                assert_same(a.derivative(), generic(lambda x: x.derivative(), a))
                assert_same(a.evaluate(point),
                            generic(lambda x: x.evaluate(point), a))
                if not b.is_zero():
                    assert_same(a.divmod(b), generic(lambda x, y: x.divmod(y), a, b))

    def test_integer_ring_ops_agree(self):
        rng = random.Random(0xC0FFEE)
        for max_len in (1, 2, 6, KARATSUBA_CUTOFF + 5, 2 * KARATSUBA_CUTOFF):
            for _ in range(8):
                a = random_poly(rng, ZZ, max_len)
                b = random_poly(rng, ZZ, max_len)
                scalar = rng.randrange(-10 ** 9, 10 ** 9)
                point = rng.randrange(-100, 100)
                assert_same(a + b, generic(lambda x, y: x + y, a, b))
                assert_same(a - b, generic(lambda x, y: x - y, a, b))
                assert_same(a * b, generic(lambda x, y: x * y, a, b))
                assert_same(a * scalar, generic(lambda x: x * scalar, a))
                assert_same(a.derivative(), generic(lambda x: x.derivative(), a))
                assert_same(a.evaluate(point),
                            generic(lambda x: x.evaluate(point), a))
                # Monic divisors divide exactly like the generic path.
                monic = Polynomial(list(b.coeffs[:3]) + [1], ZZ)
                assert_same(a.divmod(monic),
                            generic(lambda x, y: x.divmod(y), a, monic))

    def test_integer_divmod_requires_unit_lead_on_both_paths(self):
        a = Polynomial([1, 0, 1], ZZ)
        bad = Polynomial([1, 2], ZZ)
        with pytest.raises(ZeroDivisionError):
            a.divmod(bad)
        with use_kernels(False), pytest.raises(ZeroDivisionError):
            a.divmod(bad)
        neg_monic = Polynomial([3, -1], ZZ)
        assert_same(a.divmod(neg_monic),
                    generic(lambda x, y: x.divmod(y), a, neg_monic))

    def test_division_by_zero_on_both_paths(self):
        for ring in (PrimeField(7), ZZ):
            a = Polynomial([1, 2, 3], ring)
            with pytest.raises(ZeroDivisionError):
                a.divmod(Polynomial.zero(ring))
            with use_kernels(False), pytest.raises(ZeroDivisionError):
                a.divmod(Polynomial.zero(ring))

    def test_edge_cases(self):
        for ring in (PrimeField(5), PrimeField(2), ZZ):
            zero = Polynomial.zero(ring)
            one = Polynomial.one(ring)
            c = Polynomial([3], ring)
            x5 = Polynomial.monomial(5, ring=ring)
            for a, b in [(zero, zero), (zero, one), (one, zero), (c, c),
                         (x5, one), (x5, x5), (c, x5)]:
                assert_same(a + b, generic(lambda x, y: x + y, a, b))
                assert_same(a * b, generic(lambda x, y: x * y, a, b))
                assert_same(a - b, generic(lambda x, y: x - y, a, b))
            # Exact cancellation must trim down to the zero polynomial.
            assert (x5 - x5).is_zero()
            assert (x5 + (-x5)).is_zero()
            # Dividing a low-degree poly by a high-degree one: zero quotient.
            assert_same(c.divmod(x5), generic(lambda x, y: x.divmod(y), c, x5))
            assert zero.derivative().is_zero()
            assert c.derivative().is_zero()
            assert zero.evaluate(17) == ring.zero

    def test_derivative_drops_characteristic_multiples(self):
        # Over F_p the coefficient of x^(p-1) in d/dx x^p-th... i.e. i*c with
        # p | i must vanish and the result must stay trimmed.
        ring = PrimeField(3)
        poly = Polynomial([1, 1, 1, 1], ring)          # derivative: 1 + 2x (+0x^2)
        assert_same(poly.derivative(), generic(lambda x: x.derivative(), poly))
        tail = Polynomial([0, 0, 0, 2], ring)          # derivative: 6x^2 = 0
        assert tail.derivative().is_zero()

    def test_extension_field_polynomials_agree(self):
        # F_{p^e} has no flat kernel: the dispatch must leave the generic
        # path intact and field-element ops must agree with kernels off.
        for (p, e) in [(2, 2), (3, 2), (5, 3)]:
            field = ExtensionField(p, e)
            rng = random.Random(p * 100 + e)
            for _ in range(6):
                a = Polynomial([field.random_element(rng) for _ in range(rng.randrange(6))],
                               field)
                b = Polynomial([field.random_element(rng) for _ in range(rng.randrange(6))],
                               field)
                point = field.random_element(rng)
                assert_same(a + b, generic(lambda x, y: x + y, a, b))
                assert_same(a * b, generic(lambda x, y: x * y, a, b))
                assert_same(a.derivative(), generic(lambda x: x.derivative(), a))
                assert_same(a.evaluate(point),
                            generic(lambda x: x.evaluate(point), a))

    def test_extension_field_non_monic_modulus(self):
        # The fold rows must divide by the leading coefficient: 2y^2 + y + 1
        # is irreducible over F_5 but not monic.
        field = ExtensionField(5, 2, modulus=Polynomial([1, 1, 2]))
        rng = random.Random(9)
        for _ in range(25):
            a, b = field.random_element(rng), field.random_element(rng)
            fast = field.mul(a, b)
            with use_kernels(False):
                assert field.mul(a, b) == fast
            if a != field.zero:
                assert field.mul(a, field.invert(a)) == field.one

    def test_extension_field_element_mul_agrees(self):
        for (p, e) in [(2, 2), (3, 2), (5, 3), (7, 1)]:
            field = ExtensionField(p, e)
            rng = random.Random(p * 1000 + e)
            for _ in range(25):
                a = field.random_element(rng)
                b = field.random_element(rng)
                fast = field.mul(a, b)
                with use_kernels(False):
                    slow = field.mul(a, b)
                assert fast == slow
                if fast != field.zero:
                    assert field.mul(fast, field.invert(fast)) == field.one


class TestQuotientReduction:
    @pytest.mark.parametrize("p", [3, 5, 13, 29])
    def test_fp_quotient_reduce_agrees(self, p):
        ring = FpQuotientRing(p)
        rng = random.Random(p)
        for _ in range(30):
            poly = Polynomial([rng.randrange(p) for _ in range(rng.randrange(4 * p))],
                              ring.field)
            fast = ring.reduce(poly)
            with use_kernels(False):
                slow = ring.reduce(Polynomial(poly.coeffs, ring.field))
            assert fast.coeffs == slow.coeffs
            assert fast.degree < ring.degree_bound
            # Reducing a canonical element is the identity.
            assert ring.reduce(fast) == fast

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_int_quotient_reduce_agrees(self, degree):
        ring = IntQuotientRing(default_int_modulus(max(degree, 2))
                               if degree > 1 else Polynomial([7, 1], ZZ),
                               check_irreducible=(degree > 1))
        rng = random.Random(degree)
        for _ in range(30):
            poly = Polynomial([rng.randrange(-10 ** 6, 10 ** 6)
                               for _ in range(rng.randrange(25))], ZZ)
            fast = ring.reduce(poly)
            with use_kernels(False):
                slow = ring.reduce(Polynomial(poly.coeffs, ZZ))
            assert fast.coeffs == slow.coeffs
            assert fast.degree < ring.degree_bound
            assert ring.reduce(fast) == fast

    def test_is_canonical(self):
        fp_ring = FpQuotientRing(5)
        assert fp_ring.is_canonical(fp_ring.one)
        assert fp_ring.is_canonical(Polynomial([1, 2, 3, 4], fp_ring.field))
        assert not fp_ring.is_canonical(Polynomial.monomial(4, ring=fp_ring.field))
        assert not fp_ring.is_canonical(Polynomial([1, 2], ZZ))
        int_ring = IntQuotientRing(default_int_modulus(2))
        assert int_ring.is_canonical(Polynomial([9, -4], ZZ))
        assert not int_ring.is_canonical(Polynomial([0, 0, 1], ZZ))


class TestBatchedEvaluation:
    @pytest.mark.parametrize("make_ring", [
        lambda: FpQuotientRing(13),
        lambda: IntQuotientRing(default_int_modulus(2)),
    ])
    def test_evaluate_many_matches_scalar_evaluate(self, make_ring):
        ring = make_ring()
        rng = random.Random(42)
        elements = [ring.random_element(rng) for _ in range(12)]
        elements.append(ring.zero)
        elements.append(ring.one)
        for point in (1, 2, 3, 7):
            batched = ring.evaluate_many(elements, point)
            singles = [ring.evaluate(e, point) for e in elements]
            assert batched == singles
            with use_kernels(False):
                assert ring.evaluate_many(elements, point) == singles
        assert ring.evaluate_many([], 2) == []

    def test_share_generator_cache_and_batching(self):
        ring = FpQuotientRing(13)
        prg = DeterministicPRG(b"kernel-cache-test")
        cached = ClientShareGenerator(ring, prg, cache_size=8)
        uncached = ClientShareGenerator(ring, prg, cache_size=0)
        node_ids = list(range(20))
        for node_id in node_ids:
            assert cached.share_for(node_id) == uncached.share_for(node_id)
        # Second pass hits the LRU (or regenerates) — results must not drift.
        for node_id in node_ids:
            assert cached.share_for(node_id) == uncached.share_for(node_id)
        assert len(cached._cache) == 8
        for point in (1, 5):
            assert cached.evaluate_many(node_ids, point) == {
                node_id: uncached.evaluate(node_id, point) for node_id in node_ids}


class TestEndToEndAgreement:
    def test_outsource_and_lookup_identical_without_kernels(self):
        document = generate_random_document(
            RandomXmlConfig(element_count=40, tag_vocabulary_size=8, seed=7))
        client, server_tree, tree = outsource_document(document, seed=b"kernel-e2e")
        with use_kernels(False):
            g_client, g_server_tree, g_tree = outsource_document(
                document, seed=b"kernel-e2e")
        for node_id in tree.node_ids():
            assert tree.polynomial(node_id).coeffs == g_tree.polynomial(node_id).coeffs
            assert (server_tree.share_of(node_id).coeffs
                    == g_server_tree.share_of(node_id).coeffs)
        for tag in sorted(document.distinct_tags()):
            fast = client.lookup(server_tree, tag)
            with use_kernels(False):
                slow = g_client.lookup(g_server_tree, tag)
            assert fast.matches == slow.matches
            assert fast.zero_nodes == slow.zero_nodes
            assert fast.pruned_nodes == slow.pruned_nodes


class TestSecretStateVersioning:
    def test_old_unversioned_client_state_is_rejected(self):
        from repro.core.scheme import ClientContext
        from repro.errors import QueryError
        from repro.workloads import figure1_document

        document = figure1_document()
        client, server_tree, _ = outsource_document(document, seed=b"v2-state")
        state = client.secret_state()
        assert state["share_derivation"] == ClientContext.SHARE_DERIVATION
        restored = ClientContext.from_secret_state(client.ring, state)
        assert (restored.lookup(server_tree, "name").matches
                == client.lookup(server_tree, "name").matches)
        legacy = {k: v for k, v in state.items() if k != "share_derivation"}
        with pytest.raises(QueryError, match="share derivation"):
            ClientContext.from_secret_state(client.ring, legacy)

    def test_hmac_stream_client_state_is_rejected(self):
        """A client state written before the SHAKE-256 derivation names
        both derivations and asks for a re-outsource."""
        from repro.core.scheme import ClientContext
        from repro.errors import QueryError
        from repro.workloads import figure1_document

        client, _, _ = outsource_document(figure1_document(), seed=b"v2-state")
        state = dict(client.secret_state(), share_derivation="hmac-stream-v2")
        with pytest.raises(QueryError) as refused:
            ClientContext.from_secret_state(client.ring, state)
        message = str(refused.value)
        assert "'hmac-stream-v2'" in message
        assert "'shake256-xof-v3'" in message
        assert "re-outsource" in message
