"""Canonical factorization of boundary coupling matrices.

A real matrix is *canonical* when every row and every column holds at most
one nonzero entry and that entry equals 1.  For any Q there is a unique
canonical Qc with L @ Q @ U = Qc, where L is lower triangular and invertible
and U is upper triangular with unit diagonal.  The pivot positions (r, c) of
Qc tell which outgoing characteristic feeds which incoming one at a boundary,
and they are what the minimal-time formulas consume.

The factorization runs a row sweep on a working copy.  Rows are processed
top to bottom; a zero row is skipped; the pivot of a row is its leftmost
nonzero entry.  Scaling the row (recorded in L) makes the pivot 1, column
operations into later columns (recorded in U) clear the rest of the row, and
row operations onto later rows (recorded in L) clear the rest of the column.
Unit-upper-triangular column operations can only push mass rightward, which
is why the leftmost-nonzero pivot choice is forced and the sweep lands on
the canonical form with strictly increasing pivot rows.

Each spec decides the rank of its couplings once, under PIVOT_RTOL: Q0's on
Q0, Q1's on its backwards relabeling (``model.CouplingSpec``); every command
reads that decision.  ``canon --which Q1`` prints Q1's own form, whose rank
can differ at the tolerance edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries below PIVOT_RTOL * max|Q| count as zero during the sweep.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Factors L, U with L @ Q @ U = canonical, plus pivot positions.

    ``pivots`` lists 0-based (row, col) pairs with strictly increasing rows;
    ``canonical`` carries the exact 0/1 pattern.  The factors are kept in
    extended precision: the leftmost-nonzero pivot rule cannot pivot for
    size, so a small pivot inflates L and U, and double-precision evaluation
    of L @ Q @ U would lose the reconstruction identity in those cases.
    """

    lower: np.ndarray
    upper: np.ndarray
    canonical: np.ndarray
    pivots: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def canonical_form(q) -> CanonicalDecomposition:
    """Canonical form of a real matrix with its triangular factors."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    k, l = q.shape
    if k < 1 or l < 1:
        raise ValueError("matrix must have at least one row and one column")

    a = q.astype(np.longdouble)
    lower = np.eye(k, dtype=np.longdouble)
    upper = np.eye(l, dtype=np.longdouble)
    scale = np.max(np.abs(q))
    tol = PIVOT_RTOL * scale
    pivots: list[tuple[int, int]] = []

    for i in range(k):
        nz = np.nonzero(np.abs(a[i]) > tol)[0]
        if nz.size == 0:
            a[i] = 0.0
            continue
        c = int(nz[0])
        pivots.append((i, c))

        piv = a[i, c]
        a[i] /= piv
        lower[i] /= piv
        a[i, c] = 1.0

        # column operations: wipe the rest of the pivot row rightwards
        for j in range(c + 1, l):
            f = a[i, j]
            if f != 0.0:
                a[:, j] -= f * a[:, c]
                upper[:, j] -= f * upper[:, c]
                a[i, j] = 0.0

        # row operations: wipe the rest of the pivot column downwards
        for r in range(i + 1, k):
            g = a[r, c]
            if g != 0.0:
                a[r] -= g * a[i]
                lower[r] -= g * lower[i]
                a[r, c] = 0.0

    canonical = np.zeros((k, l))
    for r, c in pivots:
        canonical[r, c] = 1.0
    return CanonicalDecomposition(lower, upper, canonical, tuple(pivots))


def reversed_coupling(q1) -> np.ndarray:
    """Relabel a coupling matrix backwards: entry (i, j) of the result is
    entry (m-1-i, p-1-j) of the input.

    This is the matrix governing control at x=1 after the change of variables
    x -> 1-x with components renumbered in reverse.
    """
    q1 = np.atleast_2d(np.asarray(q1, dtype=float))
    return q1[::-1, ::-1].copy()
