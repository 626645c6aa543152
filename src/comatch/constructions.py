"""Generators for the library's named example families.

Each generator produces an object whose invariants are pinned by the test
suite: the cyclic sharpness systems (comatching number floor(4M/3); for
M <= 4 also comatching-with-intersection number M and colorful Helly
number M+1), Hamming-ball systems, the four-circle plane configuration
(comatching number 4 with common-point variant 3), interpolated
polynomial comatchings of full dimension count, the torus grid complex,
and its repeated joins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from operator import ne
from typing import Optional

from .core import InputError, SetSystem, Verdict
from .linalg import rank_exact, solve_exact
from .simplicial import SimplicialComplex, join

__all__ = [
    "GeometricCircleConfig",
    "PolynomialComatching",
    "cycle_sharpness_automorphisms",
    "gen_cycle_sharpness",
    "gen_hamming_system",
    "hamming_automorphisms",
    "gen_circle_config",
    "gen_poly_comatching",
    "verify_poly_comatching",
    "evaluate_polynomial",
    "gen_torus_grid_complex",
    "gen_good_join_complex",
]

# 2M members of 2M - 2 points each: at most 261,120 member entries here.
CYCLE_SHARPNESS_CAP = 256
HAMMING_GROUND_CAP = 4096
# k*k vertices; a torus grid writes at most k^4/4 facet entries, 262,144 here.
TORUS_VERTEX_CAP = 1024
POLY_COUNT_CAP = 64
JOIN_FOLD_CAP = 2
# The circle configuration's incidence tolerance, and how many point samples
# gen_poly_comatching draws before it gives up.
CIRCLE_TOLERANCE = 1e-9
POLY_SAMPLE_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# Cyclic sharpness systems
# ---------------------------------------------------------------------------


def gen_cycle_sharpness(m: int) -> SetSystem:
    """The cyclic sharpness system on 2M points.

    For M <= 4 its comatching-with-intersection number is M and its
    colorful Helly number is M+1, so the bound eta <= 1 + tau' is tight
    there.  That is checked only for M <= 4 and does not hold in general:
    the library proves tau' = 6 at M = 5, and h = 8 > M+1 (so eta >= 8)
    at M = 6.  The plain comatching number is floor(4M/3): a comatching's
    point set cannot contain three cyclically consecutive points (every
    member misses exactly one adjacent domino), and any
    no-three-consecutive subset extends to a comatching by matching each
    point to a domino whose other cell is unused.  That equals M only for
    M = 2.

    For M = 2 the members are A={1,2}, B={3,4} (the first subfamily) and
    C={2,3}, D={4,1} (the second).  For M >= 3 the members are the
    complements of the "even" dominoes {2i-1, 2i} (named e1..eM; this
    subfamily is repeated M-1 times) and of the "odd" dominoes
    {2i, 2i+1 mod 2M} (named o1..oM, the last subfamily).
    """
    if m < 2:
        raise InputError("the cyclic sharpness system needs M >= 2")
    if m > CYCLE_SHARPNESS_CAP:
        raise InputError(f"M = {m} exceeds the cap {CYCLE_SHARPNESS_CAP}")
    if m == 2:
        return SetSystem.from_labels(
            ["1", "2", "3", "4"],
            [
                ("A", ["1", "2"]),
                ("B", ["3", "4"]),
                ("C", ["2", "3"]),
                ("D", ["4", "1"]),
            ],
        )
    n = 2 * m
    ground = [str(i + 1) for i in range(n)]
    members = []
    for i in range(m):
        gap = {2 * i, 2 * i + 1}
        members.append((f"e{i + 1}", frozenset(set(range(n)) - gap)))
    for i in range(m):
        gap = {2 * i + 1, (2 * i + 2) % n}
        members.append((f"o{i + 1}", frozenset(set(range(n)) - gap)))
    return SetSystem(tuple(ground), tuple(members))


def cycle_sharpness_automorphisms(m: int) -> tuple[tuple[int, ...], ...]:
    """Two point maps of ``gen_cycle_sharpness(m)``'s ground, each as the
    image of every point index in turn: the rotation of the 2M-cycle by two
    points and its reflection p -> -p.  The members are the 2M cyclic
    dominoes {i, i+1} (M = 2) or their complements (M >= 3), and every
    symmetry of the cycle maps dominoes onto dominoes."""
    n = 2 * m
    return (
        tuple((p + 2) % n for p in range(n)),
        tuple(-p % n for p in range(n)),
    )


# ---------------------------------------------------------------------------
# Hamming balls
# ---------------------------------------------------------------------------


def gen_hamming_system(n: int, t: int, q: int = 2) -> SetSystem:
    """All radius-t Hamming balls over the q-ary strings of length n.

    Ground elements are the q^n strings, their digits joined by "." when
    q > 10 so that no two share a label; the member for center c is named
    B(c) and holds every string differing from c in at most t coordinates.
    """
    if q < 2:
        raise InputError("alphabet size q must be at least 2")
    if not (0 <= t < n):
        raise InputError("radius t must satisfy 0 <= t < n")
    # q >= 2, so q^n passes the cap iff q^min(n, b) does, b the cap's bit
    # length; q^n itself can have too many digits to print.
    if q ** min(n, HAMMING_GROUND_CAP.bit_length()) > HAMMING_GROUND_CAP:
        raise InputError(
            f"q^n for n = {n}, q = {q} exceeds the ground-set cap {HAMMING_GROUND_CAP}"
        )
    words = list(product(range(q), repeat=n))
    separator = "." if q > 10 else ""
    strings = [separator.join(map(str, word)) for word in words]
    members = []
    for c, centre in zip(strings, words):
        ball = frozenset(
            i for i, word in enumerate(words) if sum(map(ne, centre, word)) <= t
        )
        members.append((f"B({c})", ball))
    return SetSystem(tuple(strings), tuple(members))


def hamming_automorphisms(n: int, q: int = 2) -> tuple[tuple[int, ...], ...]:
    """Point maps of ``gen_hamming_system(n, t, q)``'s ground for every t,
    each as the image of every point index in turn: the n shifts of one
    coordinate by 1 mod q, then the n - 1 swaps of adjacent coordinates.
    Both keep Hamming distances, so they map the ball around c onto the
    ball around c's image."""
    words = list(product(range(q), repeat=n))
    index = {word: i for i, word in enumerate(words)}
    shifts = [
        tuple(index[w[:k] + ((w[k] + 1) % q,) + w[k + 1 :]] for w in words)
        for k in range(n)
    ]
    swaps = [
        tuple(index[w[:k] + (w[k + 1], w[k]) + w[k + 2 :]] for w in words)
        for k in range(n - 1)
    ]
    return (*shifts, *swaps)


# ---------------------------------------------------------------------------
# Circle configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricCircleConfig:
    """Circles and points in the plane with a tolerance-based incidence rule.

    A point lies on a circle when | |p - c| - r | <= tolerance; every
    non-incidence must clear 10x the tolerance, otherwise the configuration
    is rejected as ambiguous.
    """

    circles: tuple[tuple[tuple[float, float], float], ...]
    circle_names: tuple[str, ...]
    points: tuple[tuple[float, float], ...]
    point_names: tuple[str, ...]
    tolerance: float

    def incidence(self, point_index: int, circle_index: int) -> bool:
        (cx, cy), r = self.circles[circle_index]
        px, py = self.points[point_index]
        gap = abs(math.hypot(px - cx, py - cy) - r)
        if gap <= self.tolerance:
            return True
        if gap <= 10 * self.tolerance:
            raise InputError(
                f"incidence of point {self.point_names[point_index]} on circle "
                f"{self.circle_names[circle_index]} is ambiguous at 10x tolerance"
            )
        return False


def gen_circle_config() -> tuple[GeometricCircleConfig, SetSystem]:
    """Four unit circles and four points realizing a size-4 comatching.

    Three circles are centered at the vertices of an equilateral triangle
    and pass through its center; the fourth circumscribes the triangle.
    The points are the triangle's center and the three second intersection
    points of the circumcircle with the vertex circles.  Each point lies on
    exactly three circles, missing the one it is matched to.
    """

    def on_circle(angle_deg: float) -> tuple[float, float]:
        rad = math.radians(angle_deg)
        return (math.cos(rad), math.sin(rad))

    circles = (
        (on_circle(0.0), 1.0),
        (on_circle(120.0), 1.0),
        (on_circle(240.0), 1.0),
        ((0.0, 0.0), 1.0),
    )
    circle_names = ("C0", "C120", "C240", "circum")
    points = (
        on_circle(180.0),
        on_circle(300.0),
        on_circle(60.0),
        (0.0, 0.0),
    )
    point_names = ("P180", "P300", "P60", "center")
    config = GeometricCircleConfig(
        circles, circle_names, points, point_names, CIRCLE_TOLERANCE
    )
    members = []
    for j, name in enumerate(circle_names):
        elems = frozenset(
            i for i in range(len(points)) if config.incidence(i, j)
        )
        members.append((name, elems))
    system = SetSystem(point_names, tuple(members))
    return config, system


# ---------------------------------------------------------------------------
# Polynomial comatchings
# ---------------------------------------------------------------------------

#: A polynomial is a tuple of (exponent tuple, coefficient) monomials.
Polynomial = tuple[tuple[tuple[int, ...], Fraction], ...]


@dataclass(frozen=True)
class PolynomialComatching:
    """Polynomials f_1..f_m and points x_1..x_m with f_i(x_j) = 0 iff i != j.

    The zero sets Z(f_i) play the role of members: the vanishing pattern is
    the comatching pattern.  When m equals the dimension count C(D+d, d) of
    the degree-D polynomial space, the constant 1 lies in the span of the
    f_i, so no point can lie on all the zero sets at once: the common-point
    variant caps one lower.
    """

    num_vars: int
    degree_cap: int
    polynomials: tuple[Polynomial, ...]
    points: tuple[tuple[Fraction, ...], ...]
    common_point: Optional[tuple[Fraction, ...]] = None


def _monomials(num_vars: int, degree_cap: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree at most ``degree_cap``, sorted."""
    return sorted(
        tuple(c.count(v) for v in range(num_vars))
        for k in range(degree_cap + 1)
        for c in combinations_with_replacement(range(num_vars), k)
    )


def evaluate_polynomial(poly: Polynomial, point: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly:
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def gen_poly_comatching(
    d: int, degree_cap: int, seed: int = 7
) -> PolynomialComatching:
    """Interpolated comatching of full size m = C(D+d, d).

    Samples m integer points from a small box until the monomial evaluation
    matrix is invertible over the rationals, then solves for the
    interpolants f_i with f_i(x_j) = 1 if i = j else 0.
    """
    if d < 1 or degree_cap < 1:
        raise InputError("need at least one variable and degree at least one")
    m = comb(degree_cap + d, d)
    if m > POLY_COUNT_CAP:
        raise InputError(f"C(D+d, d) = {m} exceeds the cap {POLY_COUNT_CAP}")
    monomials = _monomials(d, degree_cap)
    rng = random.Random(seed)
    box = 3 * m
    for _ in range(POLY_SAMPLE_ATTEMPTS):
        points = [
            tuple(Fraction(rng.randint(-box, box)) for _ in range(d))
            for _ in range(m)
        ]
        if len(set(points)) != m:
            continue
        evaluation = [
            [
                math.prod((x**e for x, e in zip(p, exps)), start=Fraction(1))
                for exps in monomials
            ]
            for p in points
        ]
        polynomials = []
        singular = False
        for i in range(m):
            rhs = [Fraction(1 if r == i else 0) for r in range(m)]
            coeffs = solve_exact(evaluation, rhs)
            if coeffs is None:
                singular = True
                break
            polynomials.append(
                tuple(
                    (exps, c)
                    for exps, c in zip(monomials, coeffs)
                    if c != 0
                )
            )
        if singular:
            continue
        return PolynomialComatching(
            d, degree_cap, tuple(polynomials), tuple(points)
        )
    raise InputError(
        "could not sample a nonsingular evaluation matrix in "
        f"{POLY_SAMPLE_ATTEMPTS} attempts"
    )


def verify_poly_comatching(pc: PolynomialComatching) -> Verdict:
    """Check the vanishing pattern, rational linear independence, and the
    full-count obstruction to a common point.

    When the collection has full size C(D+d, d) and is independent, it spans
    the degree-capped polynomial space, so the constant 1 is a combination
    of the f_i; a claimed common point (a joint zero) is then reported as a
    violation, since evaluating that combination there would give 0 = 1.
    """
    m = comb(pc.degree_cap + pc.num_vars, pc.num_vars)
    monomials = _monomials(pc.num_vars, pc.degree_cap)
    monomial_index = {mono: k for k, mono in enumerate(monomials)}
    violations = []
    if len(pc.polynomials) > m:
        violations.append(
            f"{len(pc.polynomials)} polynomials exceed the space dimension {m}"
        )
    if len(pc.points) != len(pc.polynomials):
        violations.append(
            f"{len(pc.points)} points for {len(pc.polynomials)} polynomials"
        )
    for poly in pc.polynomials:
        for exps, _ in poly:
            if len(exps) != pc.num_vars:
                raise InputError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            if sum(exps) > pc.degree_cap:
                raise InputError(
                    f"monomial {exps} exceeds total degree {pc.degree_cap}"
                )
    for i, poly in enumerate(pc.polynomials):
        for j, point in enumerate(pc.points):
            value = evaluate_polynomial(poly, point)
            if i == j and value == 0:
                violations.append(f"f_{i + 1} vanishes at its own point x_{i + 1}")
            if i != j and value != 0:
                violations.append(
                    f"f_{i + 1}(x_{j + 1}) = {value}, expected 0"
                )

    # Independence over the rationals, via integer coefficient rows.
    rows = []
    for poly in pc.polynomials:
        denom = math.lcm(*(c.denominator for _, c in poly)) if poly else 1
        rows.append(
            {monomial_index[exps]: int(c * denom) for exps, c in poly}
        )
    rank = rank_exact(rows)
    if rank != len(pc.polynomials):
        violations.append(
            f"polynomials have rank {rank} < {len(pc.polynomials)}: dependent"
        )

    if pc.common_point is not None:
        if len(pc.polynomials) == m and rank == m:
            violations.append(
                "no common point can exist: the constant 1 is a combination "
                "of the polynomials, and it cannot vanish anywhere"
            )
        for i, poly in enumerate(pc.polynomials):
            if evaluate_polynomial(poly, pc.common_point) != 0:
                violations.append(
                    f"claimed common point is not a zero of f_{i + 1}"
                )
    return Verdict.passed() if not violations else Verdict.failed(violations)


# ---------------------------------------------------------------------------
# Torus grid complex and joins
# ---------------------------------------------------------------------------


def gen_torus_grid_complex(k: int = 4, s: int = 2) -> SimplicialComplex:
    """k x k toroidal grid with one facet per s x s subsquare.

    Cells are numbered row-major from 1 (top-left); the facet anchored at
    cell (r, c) wraps modulo k in both directions.  The (4, 2) instance has
    16 vertices and 16 facets of size 4, and is homotopy-equivalent to the
    torus: reduced Betti numbers (0, 2, 1, 0).
    """
    if s < 1:
        raise InputError("subsquare size must be at least 1")
    if k < 2 * s:
        raise InputError("grid size k must be at least 2s for distinct facets")
    if k * k > TORUS_VERTEX_CAP:
        raise InputError(
            f"k^2 vertices for k = {k} exceeds the vertex cap {TORUS_VERTEX_CAP}"
        )
    vertices = tuple(str(r * k + c + 1) for r in range(k) for c in range(k))
    facets = []
    for r in range(k):
        for c in range(k):
            cells = frozenset(
                ((r + a) % k) * k + ((c + b) % k)
                for a in range(s)
                for b in range(s)
            )
            facets.append(cells)
    return SimplicialComplex(vertices, tuple(facets))


def gen_good_join_complex(fold: int) -> SimplicialComplex:
    """The fold-times repeated join of the (4, 2) torus grid complex.

    fold=1 is the torus grid itself; fold=2 has 32 vertices and 256 facets
    of size 8, comatching number at most 4, and is 5-good while failing the
    5-Leray property.
    """
    if fold < 1:
        raise InputError("fold must be at least 1")
    if fold > JOIN_FOLD_CAP:
        raise InputError(f"fold {fold} exceeds the desk-scale cap {JOIN_FOLD_CAP}")
    base = gen_torus_grid_complex(4, 2)
    result = base
    for i in range(fold - 1):
        result = join(result, base, prefixes=(f"j{i}:", f"j{i + 1}:"))
    return result
