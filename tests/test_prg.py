"""Tests for the deterministic PRG used for client shares."""

import hashlib
import hmac
import random

import pytest

from repro.prg import DeterministicPRG, SeededStream, XofStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(b"seed", "a", 1) == derive_seed(b"seed", "a", 1)

    def test_label_separation(self):
        assert derive_seed(b"seed", "a") != derive_seed(b"seed", "b")
        assert derive_seed(b"seed", "a", "b") != derive_seed(b"seed", "ab")
        assert derive_seed(b"seed1", "a") != derive_seed(b"seed2", "a")

    def test_accepts_multiple_types(self):
        assert derive_seed("string-seed", 42, b"bytes")
        with pytest.raises(TypeError):
            derive_seed(b"seed", 1.5)


class TestSeededStream:
    def test_reproducible(self):
        assert SeededStream(b"k").read(100) == SeededStream(b"k").read(100)

    def test_chunking_is_transparent(self):
        whole = SeededStream(b"k").read(100)
        stream = SeededStream(b"k")
        assert stream.read(37) + stream.read(63) == whole

    def test_blocks_are_hmac_sha256_of_the_counter(self):
        """Keystreams and salts keep their bytes: block i is HMAC(seed, i)."""
        expected = b"".join(
            hmac.new(b"k", counter.to_bytes(8, "big"), hashlib.sha256).digest()
            for counter in range(3))
        assert SeededStream(b"k").read(96) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SeededStream(b"k").read(-1)


class TestDeterministicPRG:
    def test_streams_are_label_independent(self):
        prg = DeterministicPRG(b"master")
        a = prg.stream("node", 1).read(32)
        b = prg.stream("node", 2).read(32)
        assert a != b
        assert a == DeterministicPRG(b"master").stream("node", 1).read(32)

    def test_python_random_reproducible(self):
        prg = DeterministicPRG(b"master")
        r1 = prg.python_random("x")
        r2 = DeterministicPRG(b"master").python_random("x")
        assert [r1.randrange(100) for _ in range(10)] == [
            r2.randrange(100) for _ in range(10)]

    def test_child_prg_domain_separated(self):
        prg = DeterministicPRG(b"master")
        child = prg.child("sub")
        assert child.stream("n").read(16) != prg.stream("n").read(16)

    def test_generate_uses_entropy_source(self):
        entropy = random.Random(7)
        prg1 = DeterministicPRG.generate(entropy)
        prg2 = DeterministicPRG.generate(random.Random(7))
        assert prg1.seed == prg2.seed

    def test_int_seed_supported(self):
        assert DeterministicPRG(12345).stream("a").read(8)


class TestXofForksAndResidues:
    def test_fork_is_domain_separated(self):
        root = XofStream(b"k")
        assert root.fork(1).residues(32, 256) != root.fork(2).residues(32, 256)
        assert root.fork(1).residues(32, 256) == \
            XofStream(b"k").fork(1).residues(32, 256)
        assert root.fork(1, 2).residues(32, 256) == \
            root.fork(1).fork(2).residues(32, 256)
        assert XofStream(b"k2").fork(1).residues(32, 256) != \
            root.fork(1).residues(32, 256)
        # The parent stream is untouched by forking.
        assert root.residues(32, 256) == XofStream(b"k").residues(32, 256)

    def test_unlabelled_fork_is_rejected(self):
        with pytest.raises(ValueError):
            XofStream(b"k").fork()

    def test_residues_bounds_and_determinism(self):
        for bound in (1, 2, 5, 29, 257, 65537, 2 ** 33 + 1):
            values = XofStream(b"k").residues(500, bound)
            assert len(values) == 500
            assert all(0 <= v < bound for v in values)
            assert values == XofStream(b"k").residues(500, bound)
        assert XofStream(b"k").residues(0, 7) == []
        with pytest.raises(ValueError):
            XofStream(b"k").residues(3, 0)
        with pytest.raises(ValueError):
            XofStream(b"k").residues(-1, 7)

    def test_shorter_draws_are_prefixes(self):
        """A draw reads the output's limbs in order, whatever its length."""
        stream = XofStream(b"k").fork("prefix")
        for bound in (53, 1021, 65537):
            longest = stream.residues(300, bound)
            assert all(stream.residues(count, bound) == longest[:count]
                       for count in (1, 52, 299))
