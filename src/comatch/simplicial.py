"""Abstract simplicial complexes: nerves, joins, comatchings, conversions.

Complexes are stored by their facets (inclusion-maximal faces); faces are
enumerated on demand as the downward closure.  Vertices carry string
labels; faces and facets are sets of vertex indices.

The nerve of a set system has one vertex per member and a face for every
subfamily with a common point.  ``complex_to_set_system`` inverts this
for complexes without isolated vertices: the nerve of the produced system
is the complex itself, label for label, and its comatching number is at
most max(2, comatching number of the complex).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, count
from typing import Iterable, Iterator, Optional

from .core import InputError, SearchBudget, SetSystem, Verdict

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
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex labels plus inclusion-maximal faces (facets).

    Facets are nonempty, pairwise incomparable vertex-index sets, and every
    vertex lies in at least one facet.  A vertex whose only facet is its own
    singleton is *isolated*; loaders flag these because the set-system
    conversion excludes them.  ``containing[v]`` is the bitset of the facet
    indices whose facets contain vertex v.
    """

    vertices: tuple[str, ...]
    facets: tuple[frozenset[int], ...]
    containing: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex labels must be distinct")
        n = len(self.vertices)
        containing = [0] * n
        for i, f in enumerate(self.facets):
            if not f:
                raise InputError("facets must be nonempty")
            for v in f:
                if not (0 <= v < n):
                    raise InputError(f"facet vertex index {v} out of range")
                containing[v] |= 1 << i
        # Facet i lies in facet j exactly when bit j survives the AND over
        # its vertices; the lowest such j is the first container.
        full = (1 << len(self.facets)) - 1
        for i, f in enumerate(self.facets):
            others = _facets_through(containing, f, full) & ~(1 << i)
            if others:
                j = (others & -others).bit_length() - 1
                raise InputError(
                    f"facet {sorted(f)} is contained in "
                    f"facet {sorted(self.facets[j])}"
                )
        missing = [v for v in range(n) if not containing[v]]
        if missing:
            raise InputError(f"vertices {missing} lie in no facet")
        object.__setattr__(self, "containing", tuple(containing))

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
        return tuple(
            v
            for v, c in enumerate(self.containing)
            if not c & (c - 1) and len(self.facets[c.bit_length() - 1]) == 1
        )


def _facets_through(containing, face: Iterable[int], full: int) -> int:
    """AND of ``containing[v]`` over v in face, starting from ``full``."""
    for v in face:
        full &= containing[v]
    return full


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_sets(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Deduplicate and drop sets contained in another; stable, size-descending.

    Sets arrive largest first, so a set is dropped exactly when some kept set
    contains all its elements: when the AND of its elements' kept-set bitsets
    is nonzero.
    """
    unique = sorted(set(sets), key=lambda s: (-len(s), sorted(s)))
    kept: list[frozenset[int]] = []
    containing: defaultdict[int, int] = defaultdict(int)
    for s in unique:
        if not _facets_through(containing, s, (1 << len(kept)) - 1):
            for v in s:
                containing[v] |= 1 << len(kept)
            kept.append(s)
    return tuple(kept)


@dataclass(frozen=True)
class ComplexComatching:
    """Vertex set M with, per vertex v, a facet meeting M exactly in M - {v}."""

    pairs: tuple[tuple[int, int], ...]  # (vertex index, witnessing facet index)

    def __len__(self) -> int:
        return len(self.pairs)


def verify_complex_comatching(
    complex_: SimplicialComplex, cert: ComplexComatching
):
    """Check the witnessing equation facet ∩ M = M - {v} for every pair."""
    for v, f in cert.pairs:
        if not (0 <= v < complex_.num_vertices):
            raise InputError(f"vertex index {v} out of range")
        if not (0 <= f < len(complex_.facets)):
            raise InputError(f"facet index {f} out of range")
    violations = []
    names = complex_.vertex_labels
    vertices = [v for v, _ in cert.pairs]
    if len(set(vertices)) != len(vertices):
        labels = [complex_.vertices[v] for v in vertices]
        violations.append(f"comatching vertices are not distinct: {labels}")
    m = frozenset(vertices)
    for v, f in cert.pairs:
        got = complex_.facets[f] & m
        want = m - {v}
        if got != want:
            violations.append(
                f"facet {sorted(names(complex_.facets[f]))} meets M in "
                f"{sorted(names(got))}, expected {sorted(names(want))} "
                f"(witness for vertex {complex_.vertices[v]!r})"
            )
    return Verdict.passed() if not violations else Verdict.failed(violations)


# ---------------------------------------------------------------------------
# Nerve and conversion
# ---------------------------------------------------------------------------


def nerve(system: SetSystem) -> SimplicialComplex:
    """Nerve complex: vertices are members, faces are intersecting subfamilies.

    The facets are the maximal member sets through a single ground point.
    Members containing no point become isolated singleton vertices, so
    every member stays a vertex; ``complex_from_doc`` notes them.
    """
    n_members = system.num_members
    point_sets = set()
    for p in range(system.num_points):
        s = frozenset(j for j in range(n_members) if system.masks[j] >> p & 1)
        if s:
            point_sets.add(s)
    facets = list(maximal_sets(point_sets))
    covered = set().union(*facets)
    facets.extend(frozenset([j]) for j in range(n_members) if j not in covered)
    return SimplicialComplex(
        tuple(name for name, _ in system.members), tuple(facets)
    )


def complex_to_set_system(complex_: SimplicialComplex) -> SetSystem:
    """Set system whose nerve is the complex itself, label for label.

    Ground set: the vertices plus one element per facet.  The member for
    vertex v is named after v and consists of v itself and the facets
    containing v, so the members through facet i's element are exactly
    its vertices.  Facet i's element is labelled by its vertices in braces,
    or when that is taken by the first free suffix ``#j`` with j >= i.
    Requires a complex without isolated vertices; the comatching number of
    the result is at most max(2, comatching number of the complex).
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
            label = next(
                c for c in (f"{label}#{j}" for j in count(i)) if c not in taken
            )
        taken.add(label)
        facet_ground_index.append(len(ground))
        ground.append(label)
    members = tuple(
        (label, frozenset([v, *(facet_ground_index[i] for i in _bits(c))]))
        for v, (label, c) in enumerate(zip(complex_.vertices, complex_.containing))
    )
    return SetSystem(tuple(ground), members)


# ---------------------------------------------------------------------------
# Comatching number of a complex
# ---------------------------------------------------------------------------


def complex_comatching_number(
    complex_: SimplicialComplex, budget: Optional[SearchBudget] = None
) -> tuple[int, ComplexComatching, bool]:
    """Largest vertex set M where every v in M has a facet meeting M in M - {v}.

    Subsets of comatchings are comatchings (the witnessing equation
    restricts), so a depth-first search on an explicit stack extends
    partial comatchings vertex by vertex in ascending order.  Witnesses
    are kept incrementally as facet bitsets; each vertex's certificate
    facet is its lowest-indexed witness.  A frame tries a vertex v only
    while M plus the n - v vertices from v on could beat the best found,
    and the best is replaced only by a larger comatching, so the
    certificate is the first largest one in that order.
    """
    n = complex_.num_vertices
    containing = complex_.containing
    budget = budget or SearchBudget()
    best: tuple[tuple[int, int], ...] = ()
    # A frame is [next vertex to try, M, witnesses per vertex of M, facets
    # containing M]; the witnesses of u avoid u and contain M - {u}.  Adding
    # v narrows them to facets containing v, and fails if one set empties.
    # A found child spends a node.  Every frame's M is no larger than best.
    stack = [[0, (), [], (1 << len(complex_.facets)) - 1]] if budget.spend() else []
    while stack:
        frame = stack[-1]
        start, m, wits, meet = frame
        for v in range(start, n + len(m) - len(best)):
            own = meet & ~containing[v]
            narrowed = [w & containing[v] for w in wits]
            if not own or not all(narrowed):
                continue
            frame[0] = v + 1
            if not budget.spend():
                stack.clear()
                break
            m, wits = m + (v,), narrowed + [own]
            if len(m) > len(best):
                best = tuple((u, (w & -w).bit_length() - 1) for u, w in zip(m, wits))
            stack.append([v + 1, m, wits, meet & containing[v]])
            break
        else:
            stack.pop()
    return len(best), ComplexComatching(best), not budget.exhausted


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
