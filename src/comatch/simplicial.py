"""Abstract simplicial complexes: nerves, joins, comatchings, conversions.

Complexes are stored by their facets (inclusion-maximal faces); faces are
enumerated on demand as the downward closure.  Vertices carry string
labels; faces and facets are sets of vertex indices.

The nerve of a set system has one vertex per member and a face for every
subfamily with a common point.  ``complex_to_set_system`` inverts this up
to isomorphism for complexes without isolated vertices, with the
comatching number of the produced system at most max(2, comatching number
of the complex).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .core import InputError, SetSystem, iter_points
from .search import Budget, as_clock

__all__ = [
    "SimplicialComplex",
    "ComplexComatching",
    "nerve",
    "complex_comatching_number",
    "verify_complex_comatching",
    "complex_to_set_system",
    "join",
    "induced_subcomplex",
    "faces_of_dim",
    "all_faces",
    "are_isomorphic",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex labels plus inclusion-maximal faces (facets).

    Facets are nonempty, pairwise incomparable vertex-index sets, and every
    vertex lies in at least one facet.  A vertex whose only facet is its own
    singleton is *isolated*; loaders flag these because the set-system
    conversion excludes them.
    """

    vertices: tuple[str, ...]
    facets: tuple[frozenset[int], ...]
    facet_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex labels must be distinct")
        n = len(self.vertices)
        covered = set()
        masks = []
        for f in self.facets:
            if not f:
                raise InputError("facets must be nonempty")
            mask = 0
            for v in f:
                if not (0 <= v < n):
                    raise InputError(f"facet vertex index {v} out of range")
                mask |= 1 << v
            masks.append(mask)
            covered |= f
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j and a & ~b == 0:
                    raise InputError(
                        f"facet {sorted(self.facets[i])} is contained in "
                        f"facet {sorted(self.facets[j])}"
                    )
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise InputError(f"vertices {missing} lie in no facet")
        object.__setattr__(self, "facet_masks", tuple(masks))

    @classmethod
    def build(
        cls, vertices: Iterable[str], facets: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        return cls(tuple(vertices), maximal_sets(frozenset(f) for f in facets))

    @classmethod
    def from_labels(
        cls, vertices: Iterable[str], facets: Iterable[Iterable[str]]
    ) -> "SimplicialComplex":
        vertices = tuple(vertices)
        index = {label: i for i, label in enumerate(vertices)}
        try:
            resolved = [frozenset(index[v] for v in f) for f in facets]
        except KeyError as exc:
            raise InputError(f"facet references unknown vertex {exc.args[0]!r}") from None
        return cls(vertices, maximal_sets(resolved))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        """Dimension: largest facet cardinality minus one; -1 when empty."""
        return max((len(f) for f in self.facets), default=0) - 1

    def vertex_labels(self, face: Iterable[int]) -> tuple[str, ...]:
        return tuple(sorted(self.vertices[v] for v in face))

    def isolated_vertices(self) -> tuple[int, ...]:
        """Vertices whose only facet is their own singleton."""
        out = []
        for v in range(self.num_vertices):
            containing = [f for f in self.facets if v in f]
            if containing == [frozenset([v])]:
                out.append(v)
        return tuple(out)


def maximal_sets(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Deduplicate and drop sets contained in another; stable, size-descending."""
    unique = sorted(set(sets), key=lambda s: (-len(s), sorted(s)))
    kept: list[frozenset[int]] = []
    for s in unique:
        if not any(s <= t for t in kept):
            kept.append(s)
    return tuple(kept)


@dataclass(frozen=True)
class ComplexComatching:
    """Vertex set M with, per vertex v, a facet meeting M exactly in M - {v}."""

    pairs: tuple[tuple[int, int], ...]  # (vertex index, witnessing facet index)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.pairs)


def verify_complex_comatching(
    complex_: SimplicialComplex, cert: ComplexComatching
):
    """Check the witnessing equation facet ∩ M = M - {v} for every pair."""
    from .core import Verdict

    for v, f in cert.pairs:
        if not (0 <= v < complex_.num_vertices):
            raise InputError(f"vertex index {v} out of range")
        if not (0 <= f < len(complex_.facets)):
            raise InputError(f"facet index {f} out of range")
    violations = []
    vertices = [v for v, _ in cert.pairs]
    if len(set(vertices)) != len(vertices):
        violations.append(f"comatching vertices are not distinct: {vertices}")
    m = frozenset(vertices)
    for v, f in cert.pairs:
        got = complex_.facets[f] & m
        want = m - {v}
        if got != want:
            violations.append(
                f"facet {f} meets M in {sorted(got)}, expected {sorted(want)} "
                f"(witness for vertex {v})"
            )
    return Verdict.passed() if not violations else Verdict.failed(violations)


# ---------------------------------------------------------------------------
# Nerve and conversion
# ---------------------------------------------------------------------------


def nerve(system: SetSystem) -> SimplicialComplex:
    """Nerve complex: vertices are members, faces are intersecting subfamilies.

    The facets are the maximal member sets through a single ground point.
    Members containing no point are kept as isolated singleton vertices
    (with a warning): they carry no intersection information but preserve
    the vertex set.
    """
    n_members = system.num_members
    point_sets = set()
    for p in range(system.num_points):
        s = frozenset(j for j in range(n_members) if system.masks[j] >> p & 1)
        if s:
            point_sets.add(s)
    facets = list(maximal_sets(point_sets))
    covered = set().union(*facets) if facets else set()
    empty_members = [j for j in range(n_members) if j not in covered]
    if empty_members:
        names = [system.member_name(j) for j in empty_members]
        warnings.warn(
            f"members with no points become isolated nerve vertices: {names}",
            stacklevel=2,
        )
        facets.extend(frozenset([j]) for j in empty_members)
    return SimplicialComplex(
        tuple(name for name, _ in system.members), tuple(facets)
    )


def complex_to_set_system(complex_: SimplicialComplex) -> SetSystem:
    """Set system whose nerve is isomorphic to the given complex.

    Ground set: the vertices plus one element per facet.  The member for
    vertex v consists of v itself and the facets containing v.  Requires a
    complex without isolated vertices; the comatching number of the result
    is at most max(2, comatching number of the complex).
    """
    isolated = complex_.isolated_vertices()
    if isolated:
        labels = [complex_.vertices[v] for v in isolated]
        raise InputError(
            f"complex has isolated vertices {labels}; the nerve inversion "
            "requires every vertex to share a facet with another"
        )
    ground = list(complex_.vertices)
    taken = set(ground)
    facet_ground_index = []
    for i, f in enumerate(complex_.facets):
        label = "{" + "+".join(complex_.vertex_labels(f)) + "}"
        if label in taken:
            label = f"{label}#{i}"
        taken.add(label)
        facet_ground_index.append(len(ground))
        ground.append(label)
    members = []
    for v in range(complex_.num_vertices):
        elems = {v}
        for i, f in enumerate(complex_.facets):
            if v in f:
                elems.add(facet_ground_index[i])
        members.append((complex_.vertices[v], frozenset(elems)))
    return SetSystem(tuple(ground), tuple(members))


# ---------------------------------------------------------------------------
# Comatching number of a complex
# ---------------------------------------------------------------------------


def complex_comatching_number(
    complex_: SimplicialComplex, budget: Budget = None
) -> tuple[int, ComplexComatching, bool]:
    """Largest vertex set M where every v in M has a facet meeting M in M - {v}.

    Subsets of comatchings are comatchings (the witnessing equation
    restricts), so the search extends partial comatchings vertex by vertex
    in ascending order, pruning extensions that strand some vertex without
    a witness.
    """
    facet_masks = complex_.facet_masks
    n = complex_.num_vertices
    clock = as_clock(budget)
    best: tuple[tuple[int, int], ...] = ()

    def witnesses(m_mask: int) -> Optional[tuple[tuple[int, int], ...]]:
        pairs = []
        for v in iter_points(m_mask):
            want = m_mask & ~(1 << v)
            found = next(
                (i for i, fm in enumerate(facet_masks) if fm & m_mask == want),
                None,
            )
            if found is None:
                return None
            pairs.append((v, found))
        return tuple(pairs)

    def extend(m_mask: int, size: int, start: int) -> None:
        nonlocal best
        if not clock.spend():
            return
        if size > len(best):
            found = witnesses(m_mask)
            if found is None:
                return
            best = found
        if size + (n - start) <= len(best):
            return
        for v in range(start, n):
            new_mask = m_mask | (1 << v)
            if witnesses(new_mask) is not None:
                extend(new_mask, size + 1, v + 1)

    extend(0, 0, 0)
    return len(best), ComplexComatching(best), not clock.exhausted


# ---------------------------------------------------------------------------
# Join, induced subcomplex, face enumeration
# ---------------------------------------------------------------------------


def join(
    left: SimplicialComplex,
    right: SimplicialComplex,
    prefixes: tuple[str, str] = ("l:", "r:"),
) -> SimplicialComplex:
    """Join: vertex sets side by side, facets are unions of facets.

    Vertex labels are namespaced with the given prefixes.  Facet unions of
    incomparable facets stay incomparable, so no dominance pruning is ever
    needed; the facet count is the product of the factor counts.
    """
    lp, rp = prefixes
    vertices = tuple(lp + v for v in left.vertices) + tuple(
        rp + v for v in right.vertices
    )
    shift = left.num_vertices
    if right.num_vertices == 0:
        return SimplicialComplex(vertices, left.facets)
    if left.num_vertices == 0:
        return SimplicialComplex(
            vertices, tuple(frozenset(v + shift for v in g) for g in right.facets)
        )
    facets = tuple(
        f | frozenset(v + shift for v in g)
        for f in left.facets
        for g in right.facets
    )
    return SimplicialComplex(vertices, facets)


def induced_subcomplex(
    complex_: SimplicialComplex, vertex_subset: Iterable[int]
) -> SimplicialComplex:
    """Subcomplex on the given vertices: faces of the complex inside them."""
    w = sorted(set(vertex_subset))
    for v in w:
        if not (0 <= v < complex_.num_vertices):
            raise InputError(f"vertex index {v} out of range")
    remap = {v: i for i, v in enumerate(w)}
    wset = frozenset(w)
    restricted = [f & wset for f in complex_.facets]
    facets = maximal_sets(f for f in restricted if f)
    return SimplicialComplex(
        tuple(complex_.vertices[v] for v in w),
        tuple(frozenset(remap[v] for v in f) for f in facets),
    )


def faces_of_dim(complex_: SimplicialComplex, i: int) -> tuple[frozenset[int], ...]:
    """All faces with i+1 vertices, lexicographically ordered by sorted tuple.

    i = -1 yields the empty face (the augmentation).
    """
    if i < -1:
        return ()
    if i == -1:
        return (frozenset(),)
    seen = set()
    for f in complex_.facets:
        if len(f) >= i + 1:
            base = sorted(f)
            for c in combinations(base, i + 1):
                seen.add(c)
    return tuple(frozenset(c) for c in sorted(seen))


def all_faces(complex_: SimplicialComplex) -> list[tuple[frozenset[int], ...]]:
    """Faces grouped by dimension, index 0 holding dimension -1 (empty face)."""
    groups: list[set[tuple[int, ...]]] = [set() for _ in range(complex_.dim + 2)]
    for f in complex_.facets:
        base = sorted(f)
        for size in range(len(base) + 1):
            for c in combinations(base, size):
                groups[size].add(c)
    if complex_.num_vertices == 0:
        return [(frozenset(),)]
    return [tuple(frozenset(c) for c in sorted(g)) for g in groups]


# ---------------------------------------------------------------------------
# Isomorphism (desk scale)
# ---------------------------------------------------------------------------


def _vertex_signatures(complex_: SimplicialComplex, rounds: int = 3) -> list[tuple]:
    sigs: list[tuple] = [
        tuple(sorted(len(f) for f in complex_.facets if v in f))
        for v in range(complex_.num_vertices)
    ]
    for _ in range(rounds):
        fresh = []
        for v in range(complex_.num_vertices):
            neighbour = sorted(
                tuple(sorted(sigs[u] for u in f)) for f in complex_.facets if v in f
            )
            fresh.append((sigs[v], tuple(neighbour)))
        sigs = fresh
    return sigs


def are_isomorphic(left: SimplicialComplex, right: SimplicialComplex) -> bool:
    """Search for a vertex bijection carrying facets onto facets.

    Candidate images are filtered by iterated vertex signatures and by
    pairwise co-facet adjacency; intended for desk-scale complexes.
    """
    if left.num_vertices != right.num_vertices:
        return False
    if sorted(len(f) for f in left.facets) != sorted(len(f) for f in right.facets):
        return False
    n = left.num_vertices
    lsig = _vertex_signatures(left)
    rsig = _vertex_signatures(right)
    if sorted(lsig) != sorted(rsig):
        return False

    ladj = [[False] * n for _ in range(n)]
    for f in left.facets:
        for a, b in combinations(sorted(f), 2):
            ladj[a][b] = ladj[b][a] = True
    radj = [[False] * n for _ in range(n)]
    for f in right.facets:
        for a, b in combinations(sorted(f), 2):
            radj[a][b] = radj[b][a] = True

    right_facets = set(right.facet_masks)
    candidates = [
        [u for u in range(n) if rsig[u] == lsig[v]] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used = [False] * n

    def assign(k: int) -> bool:
        if k == n:
            for fm, f in zip(left.facet_masks, left.facets):
                image = 0
                for v in f:
                    image |= 1 << mapping[v]
                if image not in right_facets:
                    return False
            return True
        v = order[k]
        for u in candidates[v]:
            if used[u]:
                continue
            if any(
                ladj[v][w] != radj[u][mapping[w]] for w in mapping
            ):
                continue
            mapping[v] = u
            used[u] = True
            if assign(k + 1):
                return True
            del mapping[v]
            used[u] = False
        return False

    return assign(0)
