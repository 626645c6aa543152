"""Exact sparse rank computation and small dense rational solves.

Ranks over the rationals are computed by integer-preserving elimination:
rows are scaled by the pivot value instead of divided (rank is invariant
under nonzero row scaling), each row is reduced by its gcd to contain
entry growth, and pivots prefer entries of magnitude 1 with low Markowitz
fill.  Boundary matrices of simplicial complexes are sparse with entries
in {-1, 0, 1}, which this is tuned for.

The same elimination, with every entry it writes reduced mod a prime
p, gives the rank over GF(p): a lower bound for the rational rank (equal
except on torsion at p, which callers cross-check), at about its cost.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .core import SearchBudget

__all__ = ["FIELD_PRIME", "rank_exact", "solve_exact"]

FIELD_PRIME = 2_147_483_647  # 2^31 - 1


def _rank_sparse(
    rows: list[dict[int, int]],
    budget: SearchBudget,
    prime: Optional[int],
) -> Optional[int]:
    """Rank of the row dicts, over GF(prime) when a prime is given.

    Over GF(prime) every entry written (input, scaled or updated) is kept
    as its symmetric residue in (-prime/2, prime/2], so +-1 stays +-1 and
    the pivot rule, the division-free update and the gcd reduction apply
    unchanged: a gcd below prime is a unit mod prime.  Each pivot spends
    one node of ``budget``; None when it runs out.
    """
    rows = [dict(r) for r in rows if r]
    if prime is not None:
        rows = [{c: _residue(v, prime) for c, v in r.items() if v % prime} for r in rows]

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
    rank = 0
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
        rank += 1
        active.discard(pi)
        for c in prow:
            col_rows[c].discard(pi)
        targets = [i for i in col_rows.get(pc, ()) if i in active]
        for i in targets:
            row = rows[i]
            factor = row[pc]
            if pval == 1:
                _axpy(row, prow, -factor, i, col_rows, prime)
            elif pval == -1:
                _axpy(row, prow, factor, i, col_rows, prime)
            else:
                _scale(row, pval, prime)
                _axpy(row, prow, -factor, i, col_rows, prime)
                _reduce_gcd(row)
            heapq.heappush(heap, (len(row), i))
    return rank


def _residue(value: int, prime: int) -> int:
    # The residue of value mod prime in (-prime/2, prime/2].
    half = (prime - 1) // 2
    return (value + half) % prime - half


def _axpy(
    row: dict[int, int], src: dict[int, int], scale: int, i, col_rows, prime
) -> None:
    # row += scale * src, maintaining the column index.
    for c, v in src.items():
        new = row.get(c, 0) + scale * v
        if prime is not None:
            new = _residue(new, prime)
        if new:
            if c not in row:
                col_rows.setdefault(c, set()).add(i)
            row[c] = new
        elif c in row:
            del row[c]
            col_rows[c].discard(i)


def _scale(row: dict[int, int], factor: int, prime) -> None:
    # Both factors are nonzero mod prime, so no entry becomes zero.
    for c in row:
        row[c] *= factor
        if prime is not None:
            row[c] = _residue(row[c], prime)


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
    return _rank_sparse(list(rows), SearchBudget(), prime=None)


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
