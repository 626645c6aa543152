"""Independent brute-force oracles for differential testing.

Everything here is deliberately naive: plain enumeration over subsets,
bijections, and transversal products, and textbook dense Gaussian
elimination over Fraction, sharing no code path with the library's
clique search, hitting-set search, or sparse elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from comatch.core import SetSystem


def oracle_comatching_number(system: SetSystem):
    """Max comatching by enumerating point subsets x member subsets x bijections."""
    n, m = system.num_points, system.num_members
    for k in range(min(n, m), 0, -1):
        for pts in combinations(range(n), k):
            for mems in combinations(range(m), k):
                for perm in permutations(mems):
                    if _pattern_holds(system, pts, perm):
                        return k, list(zip(pts, perm))
    return 0, []


def oracle_comatching_with_intersection_number(system: SetSystem):
    """Max comatching whose members share a point, same naive enumeration."""
    n, m = system.num_points, system.num_members
    for k in range(min(n, m), 0, -1):
        for pts in combinations(range(n), k):
            for mems in combinations(range(m), k):
                common = [
                    p
                    for p in range(n)
                    if all(p in system.member_elements(j) for j in mems)
                ]
                if not common:
                    continue
                for perm in permutations(mems):
                    if _pattern_holds(system, pts, perm):
                        return k, list(zip(pts, perm)), common[0]
    return 0, [], None


def oracle_lex_first_comatching(system: SetSystem, common_point: bool = False):
    """The lexicographically first maximum comatching, as (size, pairs as
    (point, member), lowest common point or None).

    Every increasing member tuple is paired with every choice of points
    outside its members; the valid ones of the largest size are compared
    as sequences of (member, point) pairs.  With ``common_point`` only
    member tuples sharing a point count, and size 0 has no certificate.
    """
    n, m = system.num_points, system.num_members
    for k in range(min(n, m), 0, -1):
        found = []
        for mems in combinations(range(m), k):
            shared = [
                p
                for p in range(n)
                if all(p in system.member_elements(j) for j in mems)
            ]
            if common_point and not shared:
                continue
            outside = [
                [p for p in range(n) if p not in system.member_elements(j)]
                for j in mems
            ]
            for pts in product(*outside):
                if _pattern_holds(system, pts, mems):
                    found.append((tuple(zip(mems, pts)), shared))
        if found:
            first, shared = min(found)
            pairs = tuple((p, j) for j, p in first)
            return k, pairs, shared[0] if common_point else None
    return 0, (), None


def _pattern_holds(system: SetSystem, pts, mems) -> bool:
    for i, p in enumerate(pts):
        for j, mm in enumerate(mems):
            if (p in system.member_elements(mm)) == (i == j):
                return False
    return True


def oracle_empty_subfamilies(system: SetSystem):
    """All selections with empty intersection, by direct power-set scan."""
    m = system.num_members
    ground = frozenset(range(system.num_points))
    empties = []
    for size in range(m + 1):
        for sel in combinations(range(m), size):
            inter = ground
            for j in sel:
                inter = inter & system.member_elements(j)
            if not inter:
                empties.append(frozenset(sel))
    return empties


def oracle_minimal_empty_subfamilies(system: SetSystem):
    empties = oracle_empty_subfamilies(system)
    empty_set = set(empties)
    return sorted(
        (
            s
            for s in empties
            if not any(t < s for t in empty_set)
        ),
        key=lambda s: (len(s), sorted(s)),
    )


def oracle_helly_number(system: SetSystem) -> int:
    minimal = oracle_minimal_empty_subfamilies(system)
    if not minimal:
        return 1
    return max(len(s) for s in minimal)


def oracle_is_induced_matching_in_complement(system: SetSystem, pairs) -> bool:
    """Direct check that the pairs are an induced matching of the bipartite
    complement: chosen edges exist, endpoints are distinct, and no other
    complement edge connects endpoints of different chosen edges."""
    edges = set()
    for j in range(system.num_members):
        for p in range(system.num_points):
            if p not in system.member_elements(j):
                edges.add((p, j))
    pts = [p for p, _ in pairs]
    mems = [j for _, j in pairs]
    if len(set(pts)) != len(pts) or len(set(mems)) != len(mems):
        return False
    for p, j in pairs:
        if (p, j) not in edges:
            return False
    for a, (p, _) in enumerate(pairs):
        for b, (_, j) in enumerate(pairs):
            if a != b and (p, j) in edges:
                return False
    return True


def oracle_instance_admits_empty_transversal(system: SetSystem, families) -> bool:
    """Plain product scan over all transversals."""
    ground = frozenset(range(system.num_points))
    for choice in product(*[sorted(f) for f in families]):
        inter = ground
        for j in choice:
            inter = inter & system.member_elements(j)
        if not inter:
            return True
    return False


def dense_rank_fraction(matrix) -> int:
    """Textbook Gaussian elimination over Fraction, no pivot heuristics."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / lead[c]
                m[r] = [a - f * b for a, b in zip(m[r], lead)]
        rank += 1
    return rank


def oracle_reduced_betti(complex_) -> tuple:
    """Betti numbers from dense boundary matrices and Fraction elimination."""
    from comatch.topology import boundary_matrix

    if complex_.num_vertices == 0:
        return ()
    out = []
    for i in range(complex_.dim + 1):
        lower = boundary_matrix(complex_, i)
        upper = boundary_matrix(complex_, i + 1)
        faces = len(lower[0]) if lower else 0
        upper_rank = dense_rank_fraction(upper) if upper and upper[0] else 0
        out.append(faces - dense_rank_fraction(lower) - upper_rank)
    return tuple(out)


def oracle_max_nonzero_betti_over_subcomplexes(complex_) -> int:
    """Largest dimension with nonzero reduced homology over all induced
    subcomplexes; -1 when everything vanishes."""
    from comatch.simplicial import induced_subcomplex

    worst = -1
    n = complex_.num_vertices
    for size in range(n, 0, -1):
        for w in combinations(range(n), size):
            profile = oracle_reduced_betti(induced_subcomplex(complex_, w))
            for dim in range(len(profile) - 1, worst, -1):
                if profile[dim]:
                    worst = dim
                    break
    return worst


def oracle_bfs_collapsible(complex_, d: int) -> bool:
    """Breadth-first reachability over all collapse moves, no memo tricks."""
    from collections import deque

    from comatch.topology import _collapse_step, _free_faces, _is_collapsed

    start = tuple(sorted(complex_.facets, key=sorted))
    seen = {start}
    queue = deque([start])
    while queue:
        facets = queue.popleft()
        if _is_collapsed(facets, d):
            return True
        for face, coface in _free_faces(facets, d, False):
            nxt = tuple(sorted(_collapse_step(facets, face, coface), key=sorted))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def oracle_colorful_helly_number(system: SetSystem, max_n: int = 6) -> int:
    """Least N with no refuting N-multiset of minimal empty subfamilies,
    by direct multiset enumeration (tiny systems only)."""
    from itertools import combinations_with_replacement

    if system.num_points == 0:
        return 1
    minimal = oracle_minimal_empty_subfamilies(system)
    if not minimal:
        return 1
    for n in range(1, max_n + 1):
        refuted = False
        for tup in combinations_with_replacement(minimal, n):
            if not oracle_instance_admits_empty_transversal(system, tup):
                refuted = True
                break
        if not refuted:
            return n
    raise AssertionError(f"oracle eta exceeded the cap {max_n}")
