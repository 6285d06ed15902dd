"""Theorem-1/2 tag recovery in the evaluation domain of ``F_p[x]/(x^{p-1} - 1)``.

Over ``F_p`` the modulus splits into distinct linear factors,
``x^{p-1} - 1 = ∏_{a≠0} (x - a)`` (Lemma 1 / Fermat), so by the Chinese
remainder theorem evaluation at the ``p - 1`` nonzero points is a ring
isomorphism ``F_p[x]/(x^{p-1} - 1) ≅ F_p^{p-1}``.  In that domain a
node's encoding invariant ``f ≡ (x - t)·∏ q_i`` holds exactly when
``f(a) = (a - t)·P(a)`` at every nonzero ``a``, with ``P = ∏ q_i``:

* ring products become pointwise products, so a candidate's children
  product costs ``O(p)`` per child instead of a convolution;
* ``P = 0`` in the ring exactly when ``P(a) = 0`` everywhere — the case in
  which :meth:`~repro.algebra.quotient.EncodingRing.recover_tag` finds no
  equation to solve;
* otherwise ``t = a - f(a)/P(a)`` at the first ``a`` with ``P(a) ≠ 0`` is
  the only possible tag value (``t·P = t'·P`` forces ``t = t'`` when
  ``P ≠ 0``), and checking the equation at every ``a`` accepts exactly the
  nodes ``recover_tag`` accepts, with the same ``t``.

:class:`EvaluationDomain` verifies every candidate of a query in one pass
of array arithmetic: one coefficient matrix, one product with a
``(p-1)×(p-1)`` power table, pointwise children products, a vector solve
and a vector check.  It is offered only on the vectorized kernel tier
(:meth:`~repro.algebra.quotient.FpQuotientRing.evaluation_domain`); every
other case keeps per-node ``recover_tag``, which stays the reference the
tests compare against.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from ..errors import TagRecoveryError
from .vkernels import numpy_or_none

__all__ = ["EvaluationDomain"]

#: ``recover_tag``'s messages, so both verifiers fail with the same text.
NO_EQUATION = "no non-trivial equation available to solve for the tag value"
INCONSISTENT = ("coefficient equations are inconsistent; the node polynomial "
                "does not factor as (x - t) times the product of its children")


class EvaluationDomain:
    """Batched Theorem-1/2 recovery over ``F_p^{p-1}`` for one prime ``p``.

    The power table is built on first use and kept.  Its products run in
    float64, which is exact here: a row has at most ``p - 1`` residues
    below ``p``, so every partial sum stays below ``(p-1)^3``, and
    :data:`MAX_POINTS` keeps that under ``2^53``.
    """

    #: Largest ``p - 1`` served.  Exactness would allow far more
    #: (``(p-1)^3 = 2^33`` here); the bound is the largest size measured.
    #: Up to it the domain verified faster than per-node ``recover_tag`` at
    #: every prime tried (53 to 2039, x1.3-x5.9 per query after the
    #: first), while its table -- ``(p-1)^2`` float64, kept for the ring's
    #: life -- stays below what a full default share cache holds at the same
    #: prime (33 MB against about 72 MB at p = 2039).
    MAX_POINTS = 2048

    def __init__(self, p: int) -> None:
        np = numpy_or_none()
        if np is None:
            raise RuntimeError("EvaluationDomain requires numpy")
        if not 1 <= p - 1 <= self.MAX_POINTS:
            raise ValueError(f"p={p} is outside the evaluation-domain range")
        self.p = p
        #: The nonzero points ``a = 1..p-1``, column order of every table.
        self.points = np.arange(1, p, dtype=np.int64)
        self._table = None

    def _powers(self):
        """``table[d, j] = a_j^d mod p`` as float64 (built once).

        Rows are computed in int64 one at a time and written straight into
        the float64 table, so building it needs no second full-size copy.
        """
        if self._table is None:
            np = numpy_or_none()
            n = self.p - 1
            table = np.empty((n, n), dtype=np.float64)
            row = np.ones(n, dtype=np.int64)
            for degree in range(n):
                table[degree] = row
                row = row * self.points % self.p
            self._table = table
        return self._table

    # -- coefficient rows --------------------------------------------------------
    def coefficient_matrix(self, rows: Sequence[Sequence[Any]],
                           reduce: Optional[Callable[[Sequence[Any]],
                                                     Sequence[int]]] = None):
        """The int64 ``(len(rows), p-1)`` matrix of coefficient rows.

        Without ``reduce`` the rows must already be canonical residues (the
        client's own shares).  With it they are untrusted: a block of ints
        in ``[0, p)`` no wider than ``p - 1`` is taken as is, and otherwise
        every row that is not — too long, a non-int, a value out of range,
        negative or beyond int64 — goes through ``reduce`` (the ring's
        reference ``from_coefficients``), in order, so a malformed row
        fails exactly where the reference path fails.
        """
        np = numpy_or_none()
        p = self.p
        rows = list(rows)
        if reduce is not None:
            try:
                block = np.array(rows)
            except (ValueError, TypeError, OverflowError):
                block = None
            if (block is not None and block.ndim == 2
                    and block.dtype.kind == "i" and block.shape[1] < p
                    and (block.size == 0 or (int(block.min()) >= 0
                                             and int(block.max()) < p))):
                if block.shape[1] == p - 1:
                    return block.astype(np.int64, copy=False)
                padded = np.zeros((len(rows), p - 1), dtype=np.int64)
                padded[:, :block.shape[1]] = block
                return padded
            rows = [row if len(row) < p and all(
                        type(c) is int and 0 <= c < p for c in row)
                    else reduce(row) for row in rows]
        matrix = np.zeros((len(rows), p - 1), dtype=np.int64)
        for index, row in enumerate(rows):
            if len(row):
                matrix[index, :len(row)] = row
        return matrix

    def transform(self, matrix):
        """Values of every coefficient row at the points ``1..p-1``."""
        np = numpy_or_none()
        cols = matrix.shape[1]
        values = matrix.astype(np.float64) @ self._powers()[:cols]
        return values.astype(np.int64) % self.p

    # -- Theorem 1/2 ---------------------------------------------------------------
    def recover_tags(self, values, nodes: Sequence[int],
                     children: Sequence[Sequence[int]]
                     ) -> List[Union[int, TagRecoveryError]]:
        """Tag value of each node, or the error ``recover_tag`` would raise.

        ``values`` holds evaluated rows (:meth:`transform`); node ``k`` is
        row ``nodes[k]`` and its children are rows ``children[k]``.
        """
        np = numpy_or_none()
        p = self.p
        count = len(nodes)
        if not count:
            return []
        node_values = values[list(nodes)]
        product = np.ones_like(node_values)
        for position in range(max(len(kids) for kids in children)):
            owners = [k for k, kids in enumerate(children) if len(kids) > position]
            product[owners] = product[owners] * values[
                [children[k][position] for k in owners]] % p
        nonzero = product != 0
        solvable = nonzero.any(axis=1)
        first = nonzero.argmax(axis=1)
        picked = np.arange(count)
        divisors = product[picked, first].tolist()
        inverses = np.array([pow(d, p - 2, p) if d else 0 for d in divisors],
                            dtype=np.int64)
        tags = (self.points[first]
                - node_values[picked, first] * inverses % p) % p
        rebuilt = (self.points[None, :] - tags[:, None]) % p * product % p
        holds = (rebuilt == node_values).all(axis=1)
        results: List[Union[int, TagRecoveryError]] = []
        for tag, ok, has_equation in zip(tags.tolist(), holds.tolist(),
                                         solvable.tolist()):
            if not has_equation:
                results.append(TagRecoveryError(NO_EQUATION))
            elif not ok:
                results.append(TagRecoveryError(INCONSISTENT))
            else:
                results.append(tag)
        return results
