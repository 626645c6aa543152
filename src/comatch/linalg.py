"""Exact sparse rank computation and small dense rational solves.

Ranks over the rationals are computed by integer-preserving elimination:
rows are scaled by the pivot value instead of divided (rank is invariant
under nonzero row scaling), each row is reduced by its gcd to contain
entry growth, and pivots prefer entries of magnitude 1 with low Markowitz
fill.  Boundary matrices of simplicial complexes are sparse with entries
in {-1, 0, 1}, which this is tuned for.

The kernel also reports its pivot rows.  A row becomes a pivot while it is
its original plus a combination of earlier pivots, and every other row is
reduced to zero, so the pivot rows index a basis of the row space: there
are as many as the rank, and the pivot block they form with the pivot
columns is nonsingular.  ``topology`` clears boundary columns with them.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .core import SearchBudget

__all__ = ["rank_exact", "solve_exact"]


def _rank_sparse(
    rows: list[dict[int, int]], budget: SearchBudget
) -> Optional[list[int]]:
    """Pivot rows of the integer row dicts, as indices into ``rows``; their
    number is the rank over the rationals.

    Each pivot spends one node of ``budget``; None when it runs out.
    """
    origin = [i for i, r in enumerate(rows) if r]
    rows = [dict(rows[i]) for i in origin]

    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)

    # Markowitz-flavoured pivoting on a lazy heap: pop the currently
    # shortest row, pick its entry in the thinnest column, preferring
    # magnitude-1 values (those keep the update division-free).
    heap = [(len(r), i) for i, r in enumerate(rows)]
    heapq.heapify(heap)
    active = set(range(len(rows)))
    pivots = []
    while heap:
        rlen, pi = heapq.heappop(heap)
        if pi not in active:
            continue
        prow = rows[pi]
        if not prow:
            active.discard(pi)
            continue
        if rlen != len(prow):
            heapq.heappush(heap, (len(prow), pi))
            continue
        if not budget.spend():
            return None
        pc = min(
            prow,
            key=lambda c: (0 if prow[c] in (1, -1) else 1, len(col_rows[c]), c),
        )
        pval = prow[pc]
        pivots.append(origin[pi])
        active.discard(pi)
        for c in prow:
            col_rows[c].discard(pi)
        targets = [i for i in col_rows.get(pc, ()) if i in active]
        for i in targets:
            row = rows[i]
            factor = row[pc]
            if pval == 1:
                _axpy(row, prow, -factor, i, col_rows)
            elif pval == -1:
                _axpy(row, prow, factor, i, col_rows)
            else:
                _scale(row, pval)
                _axpy(row, prow, -factor, i, col_rows)
                _reduce_gcd(row)
            heapq.heappush(heap, (len(row), i))
    return pivots


def _axpy(row: dict[int, int], src: dict[int, int], scale: int, i, col_rows) -> None:
    # row += scale * src, maintaining the column index.
    for c, v in src.items():
        new = row.get(c, 0) + scale * v
        if new:
            if c not in row:
                col_rows.setdefault(c, set()).add(i)
            row[c] = new
        elif c in row:
            del row[c]
            col_rows[c].discard(i)


def _scale(row: dict[int, int], factor: int) -> None:
    for c in row:
        row[c] *= factor


def _reduce_gcd(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def rank_exact(rows: Sequence[dict[int, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix given as row dicts."""
    return len(_rank_sparse(list(rows), SearchBudget()))


def solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve a small dense square rational system; None when singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
