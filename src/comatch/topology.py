"""Simplicial homology over exact arithmetic, collapsibility, Leray checks.

Reduced Betti numbers are computed from augmented boundary matrices
(the empty face spans the (-1)-chain group, so b0 counts components
minus one).  Real-coefficient ranks equal rational ranks for integer
matrices, so the exact-rational mode is authoritative.  The prime-field
mode is faster but flagged non-exact: its boundary ranks are at most the
rational ones, so torsion at the field characteristic could only inflate
a reported Betti number, never hide one.

A d-collapse removes a free face of cardinality at most d together with
all faces containing it; a facet of cardinality at most d is its own
unique maximal coface and may be deleted.  A complex is d-collapsible
when some sequence of d-collapses removes every face of cardinality at
least d.  A complex is d-Leray when every induced subcomplex has trivial
reduced homology in all dimensions at least d; collapsibility at d
implies the Leray property at d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .core import InputError, iter_points
from .linalg import FIELD_PRIME, RankBudgetExceeded, _rank_sparse
from .search import Budget, as_clock
from .simplicial import SimplicialComplex, all_faces, faces_of_dim, maximal_sets

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
    "EXHAUSTIVE_LERAY_VERTEX_CAP",
]

EXHAUSTIVE_LERAY_VERTEX_CAP = 24
_SAMPLING_SEED = 0x1EAF


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers b0..b_dim with arithmetic-mode metadata."""

    reduced_betti: tuple[int, ...]
    arithmetic_mode: str
    exact: bool
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

    ``predicted`` is assembled from the factor profiles; ``direct`` is the
    join's own profile when its computation finished within budget.
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
    index = {tuple(sorted(f)): r for r, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for c, face in enumerate(upper):
        base = sorted(face)
        for k in range(len(base)):
            sub = tuple(base[:k] + base[k + 1 :])
            rows[index[sub]][c] = (-1) ** k
    return rows


def reduced_betti(
    complex_: SimplicialComplex,
    mode: str = "exact",
    budget: Budget = None,
) -> HomologyProfile:
    """Reduced Betti numbers b0..b_dim via augmented boundary ranks.

    mode "exact" uses rational arithmetic; mode "prime" works over
    GF(2^31 - 1) and is flagged non-exact.  A budget, when given, bounds
    the elimination work; exhaustion raises :class:`RankBudgetExceeded`.
    """
    if mode not in ("exact", "prime"):
        raise InputError(f"unknown arithmetic mode {mode!r}")
    arithmetic = "exact-rational" if mode == "exact" else f"prime-field({FIELD_PRIME})"
    if complex_.num_vertices == 0:
        return HomologyProfile((), arithmetic, mode == "exact", ("empty complex",))
    groups = all_faces(complex_)  # index k holds faces of dimension k-1
    dim = len(groups) - 2
    clock = as_clock(budget) if budget is not None else None
    rank = [0] * (dim + 3)  # rank[k] = rank of boundary from dim k-1 chains
    prime = None if mode == "exact" else FIELD_PRIME
    for k in range(1, len(groups)):
        rows = _sparse_boundary_rows(groups[k - 1], groups[k])
        rank[k] = _rank_sparse(rows, clock, prime)
    betti = tuple(
        len(groups[i + 1]) - rank[i + 1] - rank[i + 2] for i in range(dim + 1)
    )
    return HomologyProfile(betti, arithmetic, mode == "exact")


def is_d_good(complex_: SimplicialComplex, d: int) -> bool:
    """Nonzero reduced homology in dimension d and zero above it."""
    profile = reduced_betti(complex_, "exact")
    betti = profile.reduced_betti
    if d < 0 or d >= len(betti):
        return False
    return betti[d] != 0 and all(b == 0 for b in betti[d + 1 :])


def join_profile_from_factors(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[int, ...]:
    """Predicted join Betti numbers for nonempty factors:
    b_k = sum over i+j=k-1 of b_i * b_j."""
    out_len = len(left) + len(right) + 1
    out = [0] * out_len
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            out[i + j + 1] += a * b
    return tuple(out)


def kunneth_betti_check(
    left: SimplicialComplex,
    right: SimplicialComplex,
    budget: Budget = None,
) -> KunnethVerdict:
    """Compare the join's Betti profile against the factor convolution.

    The factor profiles are computed exactly and unbudgeted (they are the
    cheap side); the join's homology runs under the budget, and exhaustion
    is reported in-band.
    """
    from .simplicial import join

    lp = reduced_betti(left, "exact").reduced_betti
    rp = reduced_betti(right, "exact").reduced_betti
    # Extend each profile with its dimension -1 entry (1 exactly for the
    # empty complex), so the convolution stays correct when a factor is
    # empty and the join degenerates to the other factor.
    lext = (1 if left.num_vertices == 0 else 0,) + lp
    rext = (1 if right.num_vertices == 0 else 0,) + rp
    ext = [0] * (len(lext) + len(rext))
    for a, x in enumerate(lext):
        for b, y in enumerate(rext):
            ext[a + b] += x * y
    predicted_raw = tuple(ext[1:])  # entry for join dimension k sits at k+1
    joined = join(left, right)
    expected_len = joined.dim + 1 if joined.num_vertices else 0
    predicted = tuple((predicted_raw + (0,) * expected_len)[:expected_len])
    try:
        direct = reduced_betti(joined, "exact", budget).reduced_betti
    except RankBudgetExceeded:
        return KunnethVerdict("budget_exhausted", predicted, None)
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


def _free_faces(
    facets: tuple[frozenset[int], ...], d: int, strict_size: bool
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Collapsible (face, unique maximal coface) pairs, lexicographic order."""
    sizes = range(d, d + 1) if strict_size else range(1, d + 1)
    out = []
    seen: dict[tuple[int, ...], int] = {}
    for t in facets:
        base = sorted(t)
        for size in sizes:
            if size > len(base):
                continue
            for c in combinations(base, size):
                seen[c] = seen.get(c, 0) + 1
    for t in facets:
        base = sorted(t)
        for size in sizes:
            if size > len(base):
                continue
            for c in combinations(base, size):
                if seen[c] == 1:
                    out.append((frozenset(c), t))
    out.sort(key=lambda pair: (sorted(pair[0]), sorted(pair[1])))
    return out


def _collapse_step(
    facets: tuple[frozenset[int], ...], face: frozenset[int], coface: frozenset[int]
) -> tuple[frozenset[int], ...]:
    remaining = [t for t in facets if t != coface]
    remaining.extend(coface - {v} for v in face)
    return maximal_sets(t for t in remaining if t)


def _is_collapsed(facets: tuple[frozenset[int], ...], d: int) -> bool:
    return all(len(t) < d for t in facets)


def is_d_collapsible(
    complex_: SimplicialComplex,
    d: int,
    budget: Budget = None,
    *,
    strict_size: bool = False,
) -> tuple[str, Optional[CollapseSequence]]:
    """Backtracking search for a collapse sequence removing all faces of
    cardinality >= d.

    Returns ("proved", sequence), ("refuted", None) after exhausting every
    free-face choice, or ("budget_exhausted", None).  strict_size=True
    restricts steps to free faces of cardinality exactly d (the stricter
    published variant); the default allows cardinality <= d.
    """
    if d < 1:
        raise InputError("collapse dimension must be at least 1")
    clock = as_clock(budget)
    visited: set[tuple[frozenset[int], ...]] = set()
    steps: list[tuple[frozenset[int], frozenset[int]]] = []

    def canonical(facets: tuple[frozenset[int], ...]) -> tuple[frozenset[int], ...]:
        return tuple(sorted(facets, key=sorted))

    def search(facets: tuple[frozenset[int], ...]) -> Optional[bool]:
        # True: collapsed; False: dead end; None: budget exhausted.
        if _is_collapsed(facets, d):
            return True
        if not clock.spend():
            return None
        key = canonical(facets)
        if key in visited:
            return False
        visited.add(key)
        exhausted = False
        for face, coface in _free_faces(facets, d, strict_size):
            nxt = _collapse_step(facets, face, coface)
            steps.append((face, coface))
            result = search(nxt)
            if result:
                return True
            steps.pop()
            if result is None:
                exhausted = True
        return None if exhausted else False

    result = search(complex_.facets)
    if result:
        return "proved", CollapseSequence(d, strict_size, tuple(steps))
    if result is None or clock.exhausted:
        return "budget_exhausted", None
    return "refuted", None


def replay_collapse_sequence(
    complex_: SimplicialComplex, sequence: CollapseSequence
):
    """Independent replay: each step must name a currently-free face of legal
    cardinality with that exact unique maximal coface, and the final complex
    must contain no face of cardinality >= d."""
    from .core import Verdict

    facets = complex_.facets
    violations = []
    for n, (face, coface) in enumerate(sequence.steps):
        size_ok = (
            len(face) == sequence.d if sequence.strict_size else len(face) <= sequence.d
        )
        if not size_ok:
            violations.append(f"step {n}: face {sorted(face)} has illegal cardinality")
            break
        containing = [t for t in facets if face <= t]
        if len(containing) != 1:
            violations.append(
                f"step {n}: face {sorted(face)} is contained in {len(containing)} "
                "facets, not free"
            )
            break
        if containing[0] != coface:
            violations.append(
                f"step {n}: unique maximal coface is {sorted(containing[0])}, "
                f"certificate says {sorted(coface)}"
            )
            break
        facets = _collapse_step(facets, face, coface)
    else:
        if not _is_collapsed(facets, sequence.d):
            big = [sorted(t) for t in facets if len(t) >= sequence.d]
            violations.append(
                f"replay ends with faces of cardinality >= {sequence.d}: {big}"
            )
    return Verdict.passed() if not violations else Verdict.failed(violations)


# ---------------------------------------------------------------------------
# Leray checks
# ---------------------------------------------------------------------------


class _SubcomplexBettiScanner:
    """Shared machinery for Leray scans over induced subcomplexes.

    Faces are enumerated once and filtered per vertex subset; the rank of a
    boundary submatrix depends only on its column set (every boundary entry
    of a face inside W lies on a face inside W), so ranks are memoized per
    (dimension, column set).
    """

    def __init__(self, complex_: SimplicialComplex):
        self.complex = complex_
        groups = all_faces(complex_)
        # skip the empty face; index k holds faces of dimension k
        self.faces = groups[1:]
        self.face_masks = [
            [sum(1 << v for v in f) for f in dim_faces] for dim_faces in self.faces
        ]
        self.rows_by_dim = [
            _sparse_boundary_rows(groups[k], groups[k + 1])
            for k in range(len(groups) - 1)
        ]  # rows_by_dim[k]: boundary of dim-k faces into dim-(k-1) faces
        self.rank_memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def faces_in(self, w_mask: int, k: int) -> list[int]:
        if k >= len(self.faces):
            return []
        return [
            c for c, fm in enumerate(self.face_masks[k]) if fm & ~w_mask == 0
        ]

    def boundary_rank(self, k: int, cols: list[int], clock) -> int:
        """Rank of the dim-k boundary restricted to the given columns."""
        if k == 0:
            return 1 if cols else 0  # augmentation row of ones
        key = (k, tuple(cols))
        hit = self.rank_memo.get(key)
        if hit is not None:
            return hit
        colset = set(cols)
        rows = []
        for row in self.rows_by_dim[k]:
            picked = {c: v for c, v in row.items() if c in colset}
            if picked:
                rows.append(picked)
        value = _rank_sparse(rows, clock, None)
        self.rank_memo[key] = value
        return value

    def betti_from(self, w_mask: int, d: int, clock) -> Optional[int]:
        """Smallest i >= d with nonzero reduced Betti of the subcomplex on
        w_mask, or None when all vanish."""
        cols_cache: dict[int, list[int]] = {}

        def cols(k: int) -> list[int]:
            if k not in cols_cache:
                cols_cache[k] = self.faces_in(w_mask, k)
            return cols_cache[k]

        top = len(self.faces) - 1
        for i in range(max(d, 0), top + 1):
            ci = cols(i)
            if not ci:
                continue
            r_i = self.boundary_rank(i, ci, clock)
            upper = cols(i + 1) if i + 1 <= top else []
            r_up = self.boundary_rank(i + 1, upper, clock) if upper else 0
            if len(ci) - r_i - r_up:
                return i
        return None


def leray_check(
    complex_: SimplicialComplex, d: int, budget: Budget = None
) -> LerayVerdict:
    """Whether every induced subcomplex has vanishing reduced homology in
    all dimensions >= d.

    Exhaustive up to 24 vertices, scanning vertex subsets in decreasing
    size with memoized boundary ranks and stopping at the first failure
    witness.  Larger complexes use fixed-seed sampling, whose outcome can
    only be "fails" or "budget_exhausted"; sampling never ends on its own,
    so above 24 vertices a budget with a node limit or a deadline is
    required (InputError otherwise) unless d exceeds the dimension.
    """
    if d < 0:
        raise InputError("Leray dimension must be nonnegative")
    _, exact, failure = _leray_scan(complex_, d, budget, raise_floor=False)
    if failure is not None:
        return LerayVerdict(d, "fails", failure.witness)
    return LerayVerdict(d, "holds" if exact else "budget_exhausted")


def leray_number(
    complex_: SimplicialComplex, budget: Budget = None
) -> tuple[int, bool, Optional[LerayVerdict]]:
    """Smallest d whose Leray check holds, as (value, exact, witness).

    The witness is the failing verdict at d = value - 1 (None at value 0);
    under budget exhaustion the value is a lower bound that the witness
    certifies.  Above 24 vertices the scan samples and never proves
    "holds", so a budget with a node limit or a deadline is required
    (InputError otherwise).
    """
    return _leray_scan(complex_, 0, budget, raise_floor=True)


def _leray_scan(
    complex_: SimplicialComplex, floor: int, budget: Budget, *, raise_floor: bool
) -> tuple[int, bool, Optional[LerayVerdict]]:
    """One pass over induced subcomplexes for reduced homology in some
    dimension >= floor; returns (floor, exact, last failure).

    A subset W whose lowest such dimension is i fails as
    LerayVerdict(i, "fails", (W, i)); without raise_floor the scan stops
    there.  With it, the floor rises to i + 1 and W is asked again while its
    ranks are memoized, so the floor ends at the Leray number.  It is exact
    once the exhaustive order ends or the floor passes the dimension.
    """
    if complex_.dim < floor:
        return floor, True, None
    n = complex_.num_vertices
    exhaustive = n <= EXHAUSTIVE_LERAY_VERTEX_CAP
    clock = as_clock(budget)
    if exhaustive:
        order = _decreasing_subsets(n)
    elif clock.max_nodes is None and clock.deadline is None:
        raise InputError(
            f"the Leray scan samples above {EXHAUSTIVE_LERAY_VERTEX_CAP} vertices "
            f"({n} here) and needs a node limit or a deadline to end"
        )
    else:
        order = _sampled_subsets(n, _SAMPLING_SEED)
    scanner = _SubcomplexBettiScanner(complex_)
    failure = None
    for w_mask in order:
        if not clock.spend():
            return floor, False, failure
        try:
            bad = scanner.betti_from(w_mask, floor, clock)
            while bad is not None:
                witness = (frozenset(iter_points(w_mask)), bad)
                failure = LerayVerdict(bad, "fails", witness)
                floor = bad + 1
                if not raise_floor or complex_.dim < floor:
                    return floor, True, failure
                bad = scanner.betti_from(w_mask, floor, clock)
        except RankBudgetExceeded:
            return floor, False, failure
    return floor, exhaustive, failure


def _decreasing_subsets(n: int) -> Iterable[int]:
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            yield sum(1 << v for v in combo)


def _sampled_subsets(n: int, seed: int) -> Iterable[int]:
    rng = random.Random(seed)
    full = (1 << n) - 1
    yield full
    while True:
        yield rng.getrandbits(n)
