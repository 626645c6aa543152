"""Simplicial homology over the rationals, collapsibility, Leray checks.

Reduced Betti numbers are computed from augmented boundary matrices
(the empty face spans the (-1)-chain group, so b0 counts components
minus one).  Boundary ranks are computed exactly over the rationals,
which for integer matrices equal the ranks over the reals.

A d-collapse removes a free face of cardinality at most d together with
all faces containing it; a facet of cardinality at most d is its own
unique maximal coface and may be deleted.  A complex is d-collapsible
when some sequence of d-collapses removes every face of cardinality at
least d.  The search for such a sequence is depth-first on an explicit
stack.  It keeps the number of facets containing each face of legal
cardinality, changes only the coface's faces per step and undoes them on
backtrack, and tries free faces in lexicographic order, so the sequence
it proves is the lexicographically least.  ``replay_collapse_sequence``
checks a sequence from the definitions alone.

A complex is d-Leray when every induced subcomplex has trivial reduced
homology in all dimensions at least d; collapsibility at d implies the
Leray property at d.  The Leray property is decided through
links (Kalai-Meshulam: d-Leray iff every link, the complex itself
included, has trivial reduced homology from dimension d up), at a cost of
one homology per face.  A failing link then yields, by a Mayer-Vietoris
descent of at most dim + 1 homologies, a failing induced subcomplex that
``comatch verify`` replays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop
from itertools import combinations
from typing import Iterator, Optional

from .core import InputError, SearchBudget, Verdict
from .linalg import _rank_sparse
from .simplicial import (
    SimplicialComplex,
    _bits,
    _facets_through,
    faces_of_dim,
    join,
    maximal_sets,
)

__all__ = [
    "HomologyProfile",
    "CollapseSequence",
    "LerayVerdict",
    "KunnethVerdict",
    "boundary_matrix",
    "reduced_betti",
    "is_d_good",
    "join_profile_from_factors",
    "kunneth_betti_check",
    "is_d_collapsible",
    "replay_collapse_sequence",
    "leray_check",
    "leray_number",
]


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers b0..b_dim over the rationals."""

    reduced_betti: tuple[int, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable collapse steps: (free face, its unique maximal coface)."""

    d: int
    strict_size: bool
    steps: tuple[tuple[frozenset[int], frozenset[int]], ...]


@dataclass(frozen=True)
class LerayVerdict:
    d: int
    status: str  # "holds" | "fails" | "budget_exhausted"
    witness: Optional[tuple[frozenset[int], int]] = None  # (vertex subset, dim)

    def __post_init__(self) -> None:
        if self.status not in ("holds", "fails", "budget_exhausted"):
            raise InputError(f"unknown Leray status {self.status!r}")
        if self.status == "fails" and self.witness is None:
            raise InputError("a failing Leray verdict needs a witness")


@dataclass(frozen=True)
class KunnethVerdict:
    """Join-profile identity check with in-band budget exhaustion.

    ``predicted`` is assembled from the factor profiles (empty when they
    did not finish within budget); ``direct`` is the join's own profile when
    its computation finished within budget.
    """

    status: str  # "ok" | "mismatch" | "budget_exhausted"
    predicted: tuple[int, ...]
    direct: Optional[tuple[int, ...]]
    violations: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Boundary matrices and Betti numbers
# ---------------------------------------------------------------------------


def boundary_matrix(complex_: SimplicialComplex, i: int) -> list[list[int]]:
    """Dense signed boundary matrix from i-chains to (i-1)-chains.

    Rows are the (i-1)-faces, columns the i-faces, both in lexicographic
    order of sorted vertex tuples; signs alternate over each column's
    sorted vertices.  The complex is augmented: i = 0 gives the all-ones
    row over the empty face.
    """
    if not (-1 <= i <= complex_.dim + 1):
        raise InputError(f"boundary dimension {i} out of range for dim {complex_.dim}")
    cols = faces_of_dim(complex_, i)
    rows = faces_of_dim(complex_, i - 1)
    index = {tuple(sorted(f)): r for r, f in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for c, face in enumerate(cols):
        base = sorted(face)
        for k in range(len(base)):
            sub = tuple(base[:k] + base[k + 1 :])
            matrix[index[sub]][c] = (-1) ** k
    return matrix


def _sparse_boundary_rows(
    lower: tuple[frozenset[int], ...], upper: tuple[frozenset[int], ...]
) -> list[dict[int, int]]:
    """Sparse rows of the boundary from ``upper`` faces to ``lower`` faces."""
    index = {f: r for r, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for c, face in enumerate(upper):
        for k, v in enumerate(sorted(face)):
            rows[index[face - {v}]][c] = (-1) ** k
    return rows


def reduced_betti(
    complex_: SimplicialComplex, budget: Optional[SearchBudget] = None
) -> Optional[HomologyProfile]:
    """Reduced Betti numbers b0..b_dim via augmented boundary ranks.

    Each elimination pivot spends one node of the budget; None when it
    runs out (never without a budget).
    """
    if complex_.num_vertices == 0:
        return HomologyProfile((), ("empty complex",))
    betti = _betti_from(complex_, 0, budget or SearchBudget())
    if betti is None:
        return None
    return HomologyProfile(betti)


def _betti_from(
    complex_: SimplicialComplex, low: int, budget: SearchBudget
) -> Optional[tuple[int, ...]]:
    """Reduced Betti numbers b_low..b_dim of a nonempty complex, with zeros
    below ``low``: only the faces of dimension low - 1 and up are
    enumerated, and only the boundary ranks those numbers need are
    computed.  None when ``budget`` runs out during a rank."""
    dim = complex_.dim
    # groups[k] holds the faces of dimension k-1.
    groups = {k: faces_of_dim(complex_, k - 1) for k in range(low, dim + 2)}
    rank = [0] * (dim + 3)  # rank[k] = rank of boundary from dim k-1 chains
    for k in range(low + 1, dim + 2):
        rows = _sparse_boundary_rows(groups[k - 1], groups[k])
        rank[k] = _rank_sparse(rows, budget)
        if rank[k] is None:
            return None
    return tuple(
        len(groups[i + 1]) - rank[i + 1] - rank[i + 2] if i >= low else 0
        for i in range(dim + 1)
    )


def is_d_good(complex_: SimplicialComplex, d: int) -> bool:
    """Nonzero reduced homology in dimension d and zero above it."""
    profile = reduced_betti(complex_)
    betti = profile.reduced_betti
    if d < 0 or d >= len(betti):
        return False
    return betti[d] != 0 and all(b == 0 for b in betti[d + 1 :])


def join_profile_from_factors(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[int, ...]:
    """Predicted join Betti numbers b_0..b_{len(left)+len(right)}:
    b_k = sum over i+j=k-1 of b_i * b_j, with i and j from -1.

    Each profile is extended by its dimension -1 entry, 1 exactly for the
    empty complex's profile (), so a join with the empty complex predicts
    the other factor's profile.
    """
    lext = (0 if left else 1,) + tuple(left)
    rext = (0 if right else 1,) + tuple(right)
    out = [0] * (len(lext) + len(rext))
    for a, x in enumerate(lext):
        for b, y in enumerate(rext):
            out[a + b] += x * y
    return tuple(out[1:])  # entry for join dimension k sits at k + 1


def kunneth_betti_check(
    left: SimplicialComplex,
    right: SimplicialComplex,
    budget: Optional[SearchBudget] = None,
) -> KunnethVerdict:
    """Compare the join's Betti profile against the factor convolution.

    The factor homology and then the join's run under one budget;
    exhaustion on either side is reported in-band.
    """
    budget = budget or SearchBudget()
    lp = reduced_betti(left, budget)
    rp = None if lp is None else reduced_betti(right, budget)
    if rp is None:
        return KunnethVerdict("budget_exhausted", (), None)
    joined = join(left, right)
    expected_len = joined.dim + 1 if joined.num_vertices else 0
    predicted = join_profile_from_factors(lp.reduced_betti, rp.reduced_betti)
    predicted = tuple((predicted + (0,) * expected_len)[:expected_len])
    profile = reduced_betti(joined, budget)
    if profile is None:
        return KunnethVerdict("budget_exhausted", predicted, None)
    direct = profile.reduced_betti
    violations = tuple(
        f"dimension {k}: join has {direct[k]}, factors predict {predicted[k]}"
        for k in range(len(direct))
        if direct[k] != predicted[k]
    )
    status = "ok" if not violations else "mismatch"
    return KunnethVerdict(status, predicted, direct, violations)


# ---------------------------------------------------------------------------
# d-collapsibility
# ---------------------------------------------------------------------------


def _collapse_step(
    facets: tuple[frozenset[int], ...], face: frozenset[int], coface: frozenset[int]
) -> tuple[frozenset[int], ...]:
    """The facets after collapsing ``face`` into ``coface``: the coface gives
    way to the sets coface - v, v in face, that lie in no other facet.  The
    other facets stay maximal, since none of them lies in the coface."""
    remaining = [t for t in facets if t != coface]
    added = [
        g
        for g in (coface - {v} for v in face)
        if g and not any(g <= t for t in remaining)
    ]
    return tuple(remaining + added)


def _is_collapsed(facets: tuple[frozenset[int], ...], d: int) -> bool:
    return all(len(t) < d for t in facets)


class _FaceCounts:
    """The facets of a complex under d-collapses, with the number of facets
    containing each face of collapsible cardinality.

    ``free`` holds the faces (sorted vertex tuples) with count 1: those
    have a unique maximal coface.  A step and its undo touch only the faces
    of the coface and of the facets that replace it.  ``large`` counts the
    facets of cardinality >= d.
    """

    def __init__(
        self, facets: tuple[frozenset[int], ...], d: int, strict_size: bool
    ) -> None:
        self.d = d
        self.sizes = (d,) if strict_size else range(1, d + 1)
        self.facets: set[frozenset[int]] = set()
        self.count: defaultdict[tuple[int, ...], int] = defaultdict(int)
        self.free: set[tuple[int, ...]] = set()
        self.large = 0
        self.steps: list[tuple[frozenset[int], frozenset[int]]] = []
        self.added: list[list[frozenset[int]]] = []  # per step, the new facets
        for t in facets:
            self._shift(t, 1)

    def _faces(self, facet: frozenset[int]) -> Iterator[tuple[int, ...]]:
        base = sorted(facet)
        for size in self.sizes:
            if size > len(base):
                return
            yield from combinations(base, size)

    def _shift(self, facet: frozenset[int], delta: int) -> None:
        """Add (delta 1) or remove (delta -1) one facet and its faces."""
        count, free = self.count, self.free
        for c in self._faces(facet):
            old = count[c]
            count[c] = old + delta
            if old + delta == 1:
                free.add(c)
            elif old == 1:
                free.remove(c)
        if delta > 0:
            self.facets.add(facet)
        else:
            self.facets.remove(facet)
        if len(facet) >= self.d:
            self.large += delta

    def collapse(self, face: tuple[int, ...]) -> None:
        """Collapse a free face: its coface gives way to the maximal ones
        among coface - v, v in face."""
        removed = frozenset(face)
        coface = next(t for t in self.facets if removed <= t)
        self._shift(coface, -1)
        added = [
            g
            for g in (coface - {v} for v in face)
            if g and not any(g <= t for t in self.facets)
        ]
        for g in added:
            self._shift(g, 1)
        self.steps.append((removed, coface))
        self.added.append(added)

    def undo(self) -> None:
        _, coface = self.steps.pop()
        for g in self.added.pop():
            self._shift(g, -1)
        self._shift(coface, 1)


def is_d_collapsible(
    complex_: SimplicialComplex,
    d: int,
    budget: Optional[SearchBudget] = None,
    *,
    strict_size: bool = False,
) -> tuple[str, Optional[CollapseSequence]]:
    """Depth-first search for a collapse sequence removing all faces of
    cardinality >= d.

    Returns ("proved", sequence), ("refuted", None) after exhausting every
    free-face choice, or ("budget_exhausted", None).  strict_size=True
    restricts steps to free faces of cardinality exactly d (the stricter
    published variant); the default allows cardinality <= d.

    Each complex reached that is not yet collapsed spends one node and is
    expanded at most once, by a memo keyed by its facet set.  Its children
    are its free faces in increasing order of sorted vertex tuples: the
    least by ``min``, the rest from a heap built only when the first fails.
    Every step shrinks the complex, so one met again was already searched
    in full without success, and a proved sequence is the lexicographically
    least, comparing steps by free face, among the sequences that stop at
    their first collapsed complex.  Face counts are updated per step and
    undone on backtrack (:class:`_FaceCounts`), and the path is an explicit
    stack, so no depth reaches the recursion limit.
    """
    if d < 1:
        raise InputError("collapse dimension must be at least 1")
    budget = budget or SearchBudget()
    state = _FaceCounts(complex_.facets, d, strict_size)
    visited: set[frozenset[frozenset[int]]] = set()
    # One entry per step taken: the first child tried at that node, turned
    # into a heap of its untried children when a second one is needed.  The
    # state is back at the node whenever its next child is chosen, so its
    # free faces need no snapshot on entry.
    stack: list[tuple[int, ...] | list[tuple[int, ...]]] = []
    while True:
        if not state.large:
            return "proved", CollapseSequence(d, strict_size, tuple(state.steps))
        if not budget.spend():
            return "budget_exhausted", None
        key = frozenset(state.facets)
        face = None
        if key not in visited:
            visited.add(key)
            face = min(state.free, default=None)
            if face is not None:
                stack.append(face)
        while face is None:  # a dead end: back up to an untried child
            if not stack:
                return "refuted", None
            state.undo()
            if isinstance(stack[-1], tuple):
                children = list(state.free)
                heapify(children)
                heappop(children)  # the first child, already tried
                stack[-1] = children
            if stack[-1]:
                face = heappop(stack[-1])
            else:
                stack.pop()
        state.collapse(face)


def replay_collapse_sequence(
    complex_: SimplicialComplex, sequence: CollapseSequence
):
    """Independent replay: each step must name a currently-free face of legal
    cardinality with that exact unique maximal coface, and the final complex
    must contain no face of cardinality >= d."""
    facets = complex_.facets
    names = complex_.vertex_labels
    violations = []
    for n, (face, coface) in enumerate(sequence.steps):
        size_ok = (
            len(face) == sequence.d if sequence.strict_size else len(face) <= sequence.d
        )
        if not size_ok:
            violations.append(
                f"step {n}: face {sorted(names(face))} has illegal cardinality"
            )
            break
        containing = [t for t in facets if face <= t]
        if len(containing) != 1:
            violations.append(
                f"step {n}: face {sorted(names(face))} is contained in "
                f"{len(containing)} facets, not free"
            )
            break
        if containing[0] != coface:
            violations.append(
                f"step {n}: unique maximal coface is {sorted(names(containing[0]))}, "
                f"certificate says {sorted(names(coface))}"
            )
            break
        facets = _collapse_step(facets, face, coface)
    else:
        if not _is_collapsed(facets, sequence.d):
            big = [
                sorted(names(t)) for t in maximal_sets(facets) if len(t) >= sequence.d
            ]
            violations.append(
                f"replay ends with faces of cardinality >= {sequence.d}: {big}"
            )
    return Verdict.passed() if not violations else Verdict.failed(violations)


# ---------------------------------------------------------------------------
# Leray checks
# ---------------------------------------------------------------------------


def leray_check(
    complex_: SimplicialComplex, d: int, budget: Optional[SearchBudget] = None
) -> LerayVerdict:
    """Whether every induced subcomplex has vanishing reduced homology in
    all dimensions >= d.

    Decided by the link pass (:func:`_link_homology`) at any vertex count:
    "holds" when no link has reduced homology in a dimension >= d.  When
    some link does, :func:`_descend` turns the first such link, at its
    lowest failing dimension, into a failing induced subcomplex: the whole
    complex when it fails itself.  One budget bounds both.
    """
    if d < 0:
        raise InputError("Leray dimension must be nonnegative")
    budget = budget or SearchBudget()
    for sigma, betti in _link_homology(complex_, d, budget):
        bad = next((i for i in range(d, len(betti)) if betti[i]), None)
        if bad is not None:
            witness = _descend(complex_, sigma, bad, budget)
            status = "budget_exhausted" if witness is None else "fails"
            return LerayVerdict(d, status, witness)
    return LerayVerdict(d, "budget_exhausted" if budget.exhausted else "holds")


def leray_number(
    complex_: SimplicialComplex,
    budget: Optional[SearchBudget] = None,
    betti: Optional[tuple[int, ...]] = None,
) -> tuple[int, bool, Optional[LerayVerdict]]:
    """Smallest d whose Leray check holds, as (value, exact, witness).

    The link pass gives the value L, and the witness descends from the
    link that first raised the value to L, at dimension L - 1.  That is the
    first link that ``leray_check(complex_, L - 1)`` finds failing, so the
    witness is that verdict (None at value 0), and an exact value always
    comes with a replayable subset witness.  When the budget runs out, the
    value is the lower bound that the whole complex's own homology
    certifies (0 without one), flagged inexact.

    ``betti``, when given, must be the complex's exact reduced Betti
    numbers (as ``reduced_betti(complex_).reduced_betti``); the pass then
    takes them for lk {} = K instead of computing them, at no node cost.
    The whole complex's homology is then always in hand, so even an
    inexact value is never below 1 + the top nonzero dimension of ``betti``.
    """
    budget = budget or SearchBudget()
    value, whole, raiser = 0, None, frozenset()
    for sigma, link_betti in _link_homology(complex_, 0, budget, betti):
        top = _top_dimension(link_betti)
        if not sigma and top >= 0:
            whole = LerayVerdict(top, "fails", (_all_vertices(complex_), top))
        if top + 1 > value:
            value, raiser = top + 1, sigma
    if not budget.exhausted:
        if value == 0:
            return 0, True, None
        witness = _descend(complex_, raiser, value - 1, budget)
        if witness is not None:
            return value, True, LerayVerdict(value - 1, "fails", witness)
    # The budget ran out: only the whole complex's own homology is in hand.
    if whole is None:
        return 0, False, None
    return whole.d + 1, False, whole


def _all_vertices(complex_: SimplicialComplex) -> frozenset[int]:
    return frozenset(range(complex_.num_vertices))


def _top_dimension(betti: tuple[int, ...]) -> int:
    """Highest dimension with a nonzero Betti number; -1 when none."""
    return max((i for i, b in enumerate(betti) if b), default=-1)


def _link(
    complex_: SimplicialComplex,
    sigma: frozenset[int],
    within: Optional[frozenset[int]] = None,
) -> Optional[SimplicialComplex]:
    """lk sigma = {tau - sigma : tau a face containing sigma}, in the complex
    induced on ``within`` when given (sigma inside it), relabelled onto its
    own vertices; None when it is a single simplex (acyclic)."""
    facets = complex_.facets
    through = _facets_through(complex_.containing, sigma, (1 << len(facets)) - 1)
    star = [facets[i] - sigma for i in _bits(through)]
    if within is not None:
        # Restricted facets can become comparable, or empty.
        star = list(maximal_sets(f & within for f in star))
    if len(star) == 1:
        return None
    # Distinct facets through sigma stay incomparable once sigma is removed.
    vertices = sorted(set().union(*star))
    remap = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex(
        tuple(complex_.vertices[v] for v in vertices),
        tuple(frozenset(remap[v] for v in f) for f in star),
    )


def _link_homology(
    complex_: SimplicialComplex,
    floor: int,
    budget: SearchBudget,
    known: Optional[tuple[int, ...]] = None,
) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """Reduced Betti numbers of the links that can hold homology >= floor.

    Kalai and Meshulam (*Leray numbers of projections and a topological
    Helly-type theorem*, Prop. 3.1): K is d-Leray iff the reduced homology
    of lk sigma vanishes in every dimension >= d, for every face sigma, the
    empty face included (lk {} = K).  Yields (sigma, Betti numbers of lk
    sigma) with sigma = {} first, then faces by increasing size.  The value
    max(floor, 1 + highest nonzero dimension yielded) only grows, so each
    link's Betti numbers are computed (exactly) only from the current value
    up, and zeros stand below it; dim lk sigma <= dim K - |sigma|, so the
    pass ends at the first size at which no link can raise the value.
    Links with one facet are simplices and are skipped.  Each link spends
    one node plus the pivots of its ranks; the pass ends early, with
    ``budget.exhausted`` set, when the budget runs out.  ``known``, when
    given, holds K's exact reduced Betti numbers: they are yielded for
    sigma = {} as they are, without building lk {} or spending a node, so
    they are in hand however soon the budget runs out.
    """
    value = floor
    for size in range(complex_.dim - floor + 1):
        if complex_.dim - size < value:
            return
        for sigma in faces_of_dim(complex_, size - 1):
            if sigma or known is None:
                link = _link(complex_, sigma)
                if link is None:
                    continue
                if not budget.spend():
                    return
                betti = _betti_from(link, value, budget)
                if betti is None:
                    return
            else:
                betti = known
            value = max(value, _top_dimension(betti) + 1)
            yield sigma, betti


def _descend(
    complex_: SimplicialComplex, sigma: frozenset[int], i: int, budget: SearchBudget
) -> Optional[tuple[frozenset[int], int]]:
    """A failing induced subcomplex from a failing link, by Mayer-Vietoris.

    Given a face sigma with reduced H_i(lk sigma) != 0, returns (W, j) with
    H_j(K[W]) != 0 and j >= i; None when the budget runs out.  For a vertex
    v of a complex M, M is the union of M - v and the cone st v, which meet
    in lk v; so H_i(lk_M v) != 0 gives H_{i+1}(M) != 0 or H_i(M - v) != 0.
    With v in sigma, rho = sigma - v and M = lk_{K[W]} rho, lk_M v is
    lk_{K[W]} sigma and M - v is lk_{K[W - v]} rho: the first case raises i
    and the second drops v from W, and either way the invariant passes to
    rho.  At sigma = {} the link is K[W] itself, so at most dim K + 1
    homologies, each spending one node, give the witness.
    """
    w = set(_all_vertices(complex_))
    rest = sorted(sigma)
    while rest:
        v = rest.pop()
        link = _link(complex_, frozenset(rest), frozenset(w))
        if link is not None:
            if not budget.spend():
                return None
            betti = _betti_from(link, i + 1, budget)
            if betti is None:
                return None
            if any(betti[i + 1 : i + 2]):
                i += 1
                continue
        w.discard(v)
    return frozenset(w), i
