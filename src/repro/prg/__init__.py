"""Deterministic pseudo-random generation for client shares."""

from .prg import DeterministicPRG, SeededStream, XofStream, derive_seed

__all__ = ["DeterministicPRG", "SeededStream", "XofStream", "derive_seed"]
