"""Independent brute-force oracles for differential testing.

Everything here is deliberately naive: plain enumeration over subsets,
bijections, and transversal products, and textbook dense Gaussian
elimination over Fraction, sharing no code path with the library's
clique search, hitting-set search, sparse elimination, incremental
collapse search, or witness-bitset search for comatchings of complexes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from comatch.core import SetSystem
from comatch.simplicial import ComplexComatching


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


def oracle_lex_first_complex_comatching(complex_) -> ComplexComatching:
    """The first comatching of a complex, walking vertex sets M by
    decreasing size and in ``combinations`` order within a size; each v in
    M is paired with the lowest-indexed facet F with F & M == M - {v}."""
    facets = complex_.facets
    n = complex_.num_vertices
    for k in range(n, -1, -1):
        for m in combinations(range(n), k):
            ms = frozenset(m)
            pairs = []
            for v in m:
                found = [i for i, f in enumerate(facets) if f & ms == ms - {v}]
                if not found:
                    break
                pairs.append((v, found[0]))
            else:
                return ComplexComatching(tuple(pairs))


def oracle_maximal_sets(sets):
    """Deduplicate, sort size-descending, and keep each set that no kept set
    contains, by a subset test against every kept set."""
    unique = sorted(set(sets), key=lambda s: (-len(s), sorted(s)))
    kept = []
    for s in unique:
        if not any(s <= t for t in kept):
            kept.append(s)
    return tuple(kept)


def oracle_first_contained_pair(facets):
    """The first (i, j), i != j, with facet i inside facet j, comparing every
    ordered pair with i outer and j inner; None when the facets are
    pairwise incomparable."""
    for i, a in enumerate(facets):
        for j, b in enumerate(facets):
            if i != j and a <= b:
                return i, j
    return None


def oracle_complex_error(vertices, facets):
    """The text of the InputError that building a complex from these
    vertices and facets raises, checked one condition at a time; None when
    the input is valid."""
    n = len(vertices)
    if len(set(vertices)) != n:
        return "vertex labels must be distinct"
    for f in facets:
        if not f:
            return "facets must be nonempty"
        for v in f:
            if not 0 <= v < n:
                return f"facet vertex index {v} out of range"
    pair = oracle_first_contained_pair(facets)
    if pair is not None:
        i, j = pair
        return (
            f"facet {sorted(facets[i])} is contained in "
            f"facet {sorted(facets[j])}"
        )
    missing = [v for v in range(n) if not any(v in f for f in facets)]
    if missing:
        return f"vertices {missing} lie in no facet"
    return None


def oracle_containing(complex_):
    """Per vertex, the sum of 2**i over the facets i that contain it."""
    return tuple(
        sum(2**i for i, f in enumerate(complex_.facets) if v in f)
        for v in range(complex_.num_vertices)
    )


def oracle_isolated_vertices(complex_):
    """Vertices whose list of containing facets is exactly [{v}]."""
    return tuple(
        v
        for v in range(complex_.num_vertices)
        if [f for f in complex_.facets if v in f] == [frozenset([v])]
    )


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
    """Plain product scan over all transversals, on point bitmasks built here."""
    mask = {j: sum(1 << p for p in system.member_elements(j)) for f in families for j in f}
    full = (1 << system.num_points) - 1
    for choice in product(*[[mask[j] for j in sorted(f)] for f in families]):
        inter = full
        for m in choice:
            inter &= m
        if not inter:
            return True
    return False


def oracle_eta_level_search(system: SetSystem, tau_prime=None, max_nodes=None):
    """The level search of ``colorful_helly_number`` with every candidate
    scored by the plain product scan above.

    Same sandwich, same lexicographic levels of multisets of minimal empty
    subfamilies, same Apriori skip and one node per scored candidate; the
    budget runs out on the node past ``max_nodes``.  Returns (eta, exact,
    refuting families or None, nodes spent).
    """
    if system.num_points == 0:
        return 1, True, None, 0
    minimal = oracle_minimal_empty_subfamilies(system)
    if not minimal:
        return 1, True, None, 0
    h = max(len(s) for s in minimal)
    largest = next(s for s in minimal if len(s) == h)
    floor = (largest,) * (h - 1) if h >= 2 else None
    if tau_prime is not None and h == 1 + tau_prime:
        return h, True, floor, 0
    nodes = 0
    level = [()]
    size = 0
    while size != tau_prime:
        refuting = set(level)
        next_level = []
        for key in level:
            for i in range(key[-1] if key else 0, len(minimal)):
                cand = key + (i,)
                if any(cand[:j] + cand[j + 1 :] not in refuting for j in range(size)):
                    continue
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    if size < h:
                        return h, False, floor, nodes
                    return size + 1, False, tuple(minimal[k] for k in level[0]), nodes
                families = [minimal[k] for k in cand]
                if not oracle_instance_admits_empty_transversal(system, families):
                    next_level.append(cand)
        if not next_level:
            break
        level = next_level
        size += 1
    if size == 0:
        return 1, True, None, nodes
    return size + 1, True, tuple(minimal[k] for k in level[0]), nodes


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


def naive_free_pairs(facets, d: int, strict_size: bool = False):
    """Every (face, unique facet containing it) with the face of legal
    cardinality, by a containment test against every facet, ordered by the
    face's sorted vertices."""
    sizes = (d,) if strict_size else range(1, d + 1)
    pairs = []
    for t in facets:
        for size in sizes:
            for c in combinations(sorted(t), size):
                face = frozenset(c)
                if [u for u in facets if face <= u] == [t]:
                    pairs.append((face, t))
    return sorted(pairs, key=lambda pair: sorted(pair[0]))


def naive_collapse(facets, face):
    """Facets left after deleting every face that contains ``face``: all
    faces are listed, filtered, and the maximal survivors kept."""
    faces = {
        frozenset(c)
        for t in facets
        for size in range(1, len(t) + 1)
        for c in combinations(sorted(t), size)
    }
    kept = [f for f in faces if not face <= f]
    return frozenset(f for f in kept if not any(f < g for g in kept))


def _naive_collapsed(facets, d: int) -> bool:
    return all(len(t) < d for t in facets)


def oracle_bfs_collapsible(complex_, d: int) -> bool:
    """Breadth-first reachability over all collapse moves, no memo tricks."""
    from collections import deque

    start = frozenset(complex_.facets)
    seen = {start}
    queue = deque([start])
    while queue:
        facets = queue.popleft()
        if _naive_collapsed(facets, d):
            return True
        for face, _ in naive_free_pairs(facets, d):
            nxt = naive_collapse(facets, face)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def oracle_lex_first_collapse(complex_, d: int, strict_size: bool = False):
    """(status, steps, nodes): ("proved", steps) for the lexicographically
    least collapse sequence, comparing steps by sorted free face and
    stopping at the first complex with no face of cardinality >= d;
    ("refuted", None) when none exists.

    A plain recursive depth-first search over free pairs in that order,
    memoised on the facet sets known to lead nowhere.  ``nodes`` counts the
    complexes reached that are not collapsed, each time they are reached.
    """
    dead = set()
    nodes = 0

    def first(facets):
        nonlocal nodes
        if _naive_collapsed(facets, d):
            return ()
        nodes += 1
        if facets in dead:
            return None
        for face, coface in naive_free_pairs(facets, d, strict_size):
            rest = first(naive_collapse(facets, face))
            if rest is not None:
                return ((face, coface),) + rest
        dead.add(facets)
        return None

    steps = first(frozenset(complex_.facets))
    return ("refuted" if steps is None else "proved"), steps, nodes


def oracle_collapse_replays(complex_, d: int, strict_size: bool, steps) -> bool:
    """Whether each step is a free pair of legal cardinality in the complex
    left by the steps before it, and the last complex has no face of
    cardinality >= d."""
    facets = frozenset(complex_.facets)
    for face, coface in steps:
        if (face, coface) not in naive_free_pairs(facets, d, strict_size):
            return False
        facets = naive_collapse(facets, face)
    return _naive_collapsed(facets, d)


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


def oracle_are_isomorphic(left, right) -> bool:
    """Whether some vertex bijection maps the facets of left onto those of
    right, by trying every permutation (desk scale: n <= 7)."""
    if left.num_vertices != right.num_vertices:
        return False
    target = set(right.facets)
    return any(
        {frozenset(perm[v] for v in f) for f in left.facets} == target
        for perm in permutations(range(left.num_vertices))
    )
