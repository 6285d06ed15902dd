"""Property tests: the vectorized tier is bit-identical to flat and generic.

Every prime-field operation is computed three times — vectorized
(``VecFpKernel``), flat (``use_vector_kernels(False)``) and generic
(``use_kernels(False)``) — and the results compared for exact equality,
across primes on both sides of the native-width boundary, degrees on both
sides of ``VECTOR_MIN_COEFFS``, and the empty/constant edge cases.  The
same triple comparison is run on batched store evaluation (full protocol
lookups across the tiers are ``tests/test_oracle.py``'s).  The
numpy-absent fallback (``REPRO_DISABLE_NUMPY``) is covered here too.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    Polynomial,
    PrimeField,
    VecFpKernel,
    fits_native_width,
    kernels_enabled,
    numpy_or_none,
    use_kernels,
    use_vector_kernels,
    vector_kernel_for,
    vector_kernels_enabled,
)
from repro.algebra.kernels import FpKernel
from repro.algebra.vkernels import NATIVE_LIMB_BITS, VECTOR_MIN_COEFFS
from repro.core import outsource_document
from repro.workloads import RandomXmlConfig, generate_random_document

numpy_present = pytest.mark.skipif(numpy_or_none() is None,
                                   reason="numpy not installed")

#: Primes spanning the native-width boundary: tiny characteristics, the
#: bench prime, the largest 31-bit prime (which forces the chunked
#: convolution and the Horner evaluation sweep), and one just past the
#: boundary that must stay on the flat bigint tier.
NATIVE_PRIMES = [2, 3, 5, 97, 10007, 2147483647]
WIDE_PRIME = 4294967311  # > 2^32: (p-1)^2 overflows the 63-bit limb

residues = st.data()


def _random_residues(rng, p, max_len=80):
    return [rng.randrange(p) for _ in range(rng.randrange(max_len))]


class TestTierSelection:
    @numpy_present
    def test_native_prime_gets_vectorized_kernel(self):
        for p in NATIVE_PRIMES:
            assert isinstance(PrimeField(p).kernel(), VecFpKernel)

    def test_wide_prime_stays_flat(self):
        kernel = PrimeField(WIDE_PRIME).kernel()
        assert isinstance(kernel, FpKernel)
        assert not isinstance(kernel, VecFpKernel)
        assert vector_kernel_for(WIDE_PRIME) is None

    def test_kernels_disabled_turns_every_tier_off(self):
        with use_kernels(False):
            assert PrimeField(10007).kernel() is None

    @numpy_present
    def test_vector_switch_pins_flat_tier(self):
        field = PrimeField(10007)
        with use_vector_kernels(False):
            assert not vector_kernels_enabled()
            kernel = field.kernel()
            assert isinstance(kernel, FpKernel)
            assert not isinstance(kernel, VecFpKernel)
        assert vector_kernels_enabled()
        assert kernels_enabled()

    def test_fits_native_width_boundary(self):
        assert fits_native_width(2)
        assert fits_native_width(2147483647)
        assert not fits_native_width(WIDE_PRIME)
        assert not fits_native_width(1)
        # The exact boundary: largest p with (p-1)^2 + (p-1) < 2^63.
        limit = 1 << NATIVE_LIMB_BITS
        for p in range(3037000499 - 2, 3037000499 + 3):
            assert fits_native_width(p) == ((p - 1) ** 2 + (p - 1) < limit)

    @numpy_present
    def test_vec_kernel_rejects_wide_prime(self):
        with pytest.raises(ValueError):
            VecFpKernel(WIDE_PRIME)


@numpy_present
class TestKernelBitIdentity:
    """VecFpKernel output equals FpKernel output, value for value."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(NATIVE_PRIMES), st.integers(0, 2 ** 32))
    def test_all_ops_match_flat(self, p, seed):
        rng = random.Random(seed)
        vec = VecFpKernel(p)
        flat = FpKernel(p)
        a = _random_residues(rng, p)
        b = _random_residues(rng, p)
        scalar = rng.randrange(p)
        point = rng.randrange(p)
        assert vec.add(a, b) == flat.add(a, b)
        assert vec.sub(a, b) == flat.sub(a, b)
        assert vec.neg(a) == flat.neg(a)
        assert vec.scalar_mul(a, scalar) == flat.scalar_mul(a, scalar)
        assert vec.mul(a, b) == flat.mul(a, b)
        assert vec.derivative(a) == flat.derivative(a)
        seqs = [_random_residues(rng, p, 40) for _ in range(rng.randrange(12))]
        assert vec.evaluate_many(seqs, point) == flat.evaluate_many(seqs, point)

    def test_results_are_python_ints(self):
        vec = VecFpKernel(10007)
        out = vec.mul(list(range(1, 40)), list(range(1, 40)))
        assert all(type(c) is int for c in out)

    def test_empty_and_constant_shares(self):
        for p in NATIVE_PRIMES:
            vec = VecFpKernel(p)
            flat = FpKernel(p)
            for a in ([], [0], [1 % p], [p - 1]):
                for b in ([], [0], [p - 1]):
                    assert vec.add(a, b) == flat.add(a, b)
                    assert vec.mul(a, b) == flat.mul(a, b)
                assert vec.neg(a) == flat.neg(a)
                assert vec.derivative(a) == flat.derivative(a)
            assert vec.evaluate_many([], 3) == []
            assert vec.evaluate_many([[], [0], [p - 1]], p - 1) == \
                flat.evaluate_many([[], [0], [p - 1]], p - 1)

    def test_chunked_convolution_is_exact(self):
        # (p-1)^2 ~ 4.6e18 for the largest 31-bit prime: already two
        # convolution terms overflow the limb, so this exercises the
        # chunk-reduce-accumulate path on every product.
        p = 2147483647
        rng = random.Random(0xC0FFEE)
        vec = VecFpKernel(p)
        flat = FpKernel(p)
        a = [rng.randrange(p) for _ in range(130)]
        b = [rng.randrange(p) for _ in range(70)]
        assert vec.mul(a, b) == flat.mul(a, b)

    def test_horner_sweep_is_exact(self):
        # Same prime: cols * (p-1)^2 >= 2^63 forces the column-wise Horner
        # fallback inside evaluate_matrix.
        p = 2147483647
        rng = random.Random(0xFEED)
        vec = VecFpKernel(p)
        flat = FpKernel(p)
        seqs = [[rng.randrange(p) for _ in range(60)] for _ in range(20)]
        point = rng.randrange(p)
        assert vec.evaluate_many(seqs, point) == flat.evaluate_many(seqs, point)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([5, 97, 10007]), st.integers(0, 2 ** 32))
    def test_polynomial_ops_match_generic(self, p, seed):
        rng = random.Random(seed)
        field = PrimeField(p)
        span = max(2, VECTOR_MIN_COEFFS * 3)
        a = Polynomial([rng.randrange(p) for _ in range(rng.randrange(span))],
                       field)
        b = Polynomial([rng.randrange(p) for _ in range(rng.randrange(span))],
                       field)
        fast = [(a + b).coeffs, (a - b).coeffs, (a * b).coeffs, (-a).coeffs]
        with use_kernels(False):
            slow = [(a + b).coeffs, (a - b).coeffs, (a * b).coeffs,
                    (-a).coeffs]
        assert fast == slow


def _evaluate_store_three_ways(store, node_ids, point):
    with use_kernels(True), use_vector_kernels(True):
        vectorized = store.evaluate_many(node_ids, point)
    with use_vector_kernels(False):
        flat = store.evaluate_many(node_ids, point)
    with use_kernels(False):
        generic = store.evaluate_many(node_ids, point)
    return vectorized, flat, generic


@numpy_present
class TestStoreTierIdentity:
    @pytest.fixture(scope="class")
    def outsourced(self):
        document = generate_random_document(
            RandomXmlConfig(element_count=300, tag_vocabulary_size=16,
                            tag_skew=1.4, seed=11))
        return outsource_document(document, seed=b"vkernel-tests"), document

    def test_sqlite_evaluate_many_identical_across_tiers(self, outsourced,
                                                         tmp_path):
        from repro.net import SQLiteShareStore

        (client, server_tree, _), _ = outsourced
        store = SQLiteShareStore.from_tree(str(tmp_path / "s.db"), server_tree,
                                           cache_size=64)
        node_ids = store.node_ids()
        vectorized, flat, generic = _evaluate_store_three_ways(
            store, node_ids, 5)
        assert vectorized == flat == generic
        # Second pass reuses rows the vector path cached as int64 arrays.
        again, _, _ = _evaluate_store_three_ways(store, node_ids, 7)
        with use_kernels(False):
            assert store.evaluate_many(node_ids, 7) == again
        # share_of must upgrade an array-cached row to a Polynomial.
        share = store.share_of(node_ids[0])
        assert share == server_tree.share_of(node_ids[0])
        store.close()

    def test_in_memory_evaluate_many_identical_across_tiers(self, outsourced):
        (client, server_tree, _), _ = outsourced
        node_ids = server_tree.node_ids()
        for point in (3, 5, 11):
            vectorized, flat, generic = _evaluate_store_three_ways(
                server_tree, node_ids, point)
            assert vectorized == flat == generic
            # ... and all of them equal the tree's own scalar walk.
            assert vectorized == {node_id: server_tree.evaluate(node_id, point)
                                  for node_id in node_ids}
        # Edge cases: empty request and a single constant-share node.
        assert server_tree.evaluate_many([], 3) == {}
        one = node_ids[:1]
        assert server_tree.evaluate_many(one, 7) == \
            {one[0]: server_tree.evaluate(one[0], 7)}


class TestNumpyAbsentFallback:
    def test_disable_env_var_blanks_the_tier(self):
        script = (
            "from repro.algebra import numpy_or_none, vector_kernel_for, "
            "PrimeField, VecFpKernel\n"
            "from repro.algebra.kernels import FpKernel\n"
            "assert numpy_or_none() is None\n"
            "assert vector_kernel_for(10007) is None\n"
            "kernel = PrimeField(10007).kernel()\n"
            "assert isinstance(kernel, FpKernel)\n"
            "assert not isinstance(kernel, VecFpKernel)\n"
            "from repro.net.pages import decode_coefficients_batch, "
            "encode_coefficients\n"
            "assert decode_coefficients_batch([encode_coefficients([1, 2])]) "
            "is None\n"
            "from repro.core import outsource_document\n"
            "from repro.workloads import RandomXmlConfig, "
            "generate_random_document\n"
            "doc = generate_random_document(RandomXmlConfig(element_count=60, "
            "tag_vocabulary_size=8, seed=3))\n"
            "client, tree, _ = outsource_document(doc, seed=b'no-numpy')\n"
            "tag = sorted(doc.distinct_tags())[0]\n"
            "outcome = client.lookup(tree, tag)\n"
            "assert outcome.matches is not None\n"
            "print('fallback-ok')\n"
        )
        env = dict(os.environ, REPRO_DISABLE_NUMPY="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")]
                       + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
