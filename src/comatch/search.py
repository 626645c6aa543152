"""Exact search for comatching and Helly-type invariants, with certificates.

Everything here is exact and certificate-producing:

* ``comatching_number`` / ``comatching_with_intersection_number`` run a
  bit-parallel maximum-clique search on one compatibility graph of the
  (member, point) pairs, which both searches on a system share.  A
  value pass branches in colour order (Tomita and Seki 2003, in the
  bitset form of San Segundo et al. 2011), bounded by greedy colouring
  read from a triangular table of the pairs below each pair that are not
  its neighbours (n(n-1)/2 bits for n pairs).  The certificate is the
  lexicographically first optimum, built one pair at a time, each pair
  the lowest whose later neighbours still hold a clique of the remaining
  size.  The value pass's clique is the first witness of such a clique:
  a pair that begins the witness is kept at no cost, and any other pair
  is decided by the same colour-ordered search, whose clique becomes the
  next witness.
  The graph memoizes, for tau', the pairs that meet each intersection,
  and for both value passes the colour classes of each root.
* ``minimal_empty_subfamilies`` enumerates the inclusion-minimal
  subfamilies with empty intersection (the minimal non-faces of the
  nerve) as minimal hitting sets of the complement hypergraph, by MMCS
  (Murakami and Uno 2014) over bitsets of points and of members: the
  members that would leave a chosen member redundant are excluded with
  one bitset per chosen member before any child is built.  Later calls
  on the system, and eta, reuse the enumeration.
* ``colorful_helly_number`` finds the least N such that every N-tuple of
  empty-intersection subfamilies admits a colorful transversal with
  empty intersection.  It sandwiches the value first, h <= eta <= 1 + tau'
  (the upper end when the caller passes an exact ``tau_prime``), and
  returns at once when the ends meet; otherwise it enumerates refuting
  multisets level by level with Apriori pruning and scores each candidate
  by whether its positions match a minimal empty subfamily perfectly.
  Below the size of the smallest minimal empty subfamily every multiset
  refutes, so those levels are counted, not listed.  A level whose g
  subfamilies of size N fit g * 2**N <= 4,096 bits is scored through a
  bit-parallel lattice of the subsets each prefix of a key matches,
  carried down the keys in lexicographic order; a wider level, where the
  lattice would cost more than it saves, runs one bipartite matching per
  key and subfamily.
* ``colorful_transversal_dichotomy`` is the constructive step behind
  the bound eta <= 1 + tau': given subfamilies with empty intersections
  it returns either an empty transversal or a comatching-with-
  intersection witness of full size.

The compatibility graph and the minimal empty subfamilies depend only on
the system, so each is built once per system, on first use, and kept in a
memo keyed weakly by the system: an entry goes when its system does, and
no caller passes or checks either structure.  The graph's own memos go
with it.  None of these spends a budget node, so no result depends on
which call built or filled them.  Two threads that miss a memo at once
both build the same value, and one is kept.  No other state outlives a
call.

Every search takes an optional :class:`comatch.core.SearchBudget` and
counts its nodes into it.  Budgets are never errors: results carry
exactness flags instead, so property tests can filter on them.  No
search here recurses, so none is bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence
from weakref import WeakKeyDictionary

from .core import (
    Comatching,
    ComatchingWithIntersection,
    InputError,
    SearchBudget,
    SetSystem,
    SubfamilySelection,
    intersection_mask,
)

__all__ = [
    "ColorfulInstance",
    "DichotomyOutcome",
    "FractionalHellyProfile",
    "comatching_number",
    "comatching_with_intersection_number",
    "minimal_empty_subfamilies",
    "helly_number",
    "colorful_helly_number",
    "colorful_transversal_dichotomy",
    "instance_admits_empty_transversal",
    "fractional_helly_profile",
]


@dataclass(frozen=True)
class ColorfulInstance:
    """Subfamilies F_1..F_N, each selecting members with empty intersection.

    Positions may repeat the same subfamily; the tuple is ordered but all
    derived quantities are symmetric in the positions.
    """

    families: tuple[SubfamilySelection, ...]

    def __len__(self) -> int:
        return len(self.families)

    @classmethod
    def build(cls, families: Iterable[Iterable[int]]) -> "ColorfulInstance":
        return cls(tuple(frozenset(f) for f in families))

    def validate(self, system: SetSystem) -> None:
        if not self.families:
            raise InputError("a colorful instance needs at least one subfamily")
        for k, fam in enumerate(self.families):
            if not fam:
                raise InputError(f"subfamily {k} is empty")
            if intersection_mask(system, fam) != 0:
                raise InputError(
                    f"subfamily {k} has nonempty intersection; "
                    "the dichotomy requires empty-intersection subfamilies"
                )


@dataclass(frozen=True)
class DichotomyOutcome:
    """Exactly one of: an empty colorful transversal, or a full-size witness."""

    transversal: Optional[tuple[int, ...]] = None
    witness: Optional[ComatchingWithIntersection] = None

    def __post_init__(self) -> None:
        if (self.transversal is None) == (self.witness is None):
            raise InputError("exactly one outcome arm must be populated")

    @property
    def is_transversal(self) -> bool:
        return self.transversal is not None


@dataclass(frozen=True)
class FractionalHellyProfile:
    """Exact tuple-intersection statistics of a family."""

    n: int
    k: int
    intersecting_tuples: int
    alpha: Fraction
    max_intersecting_subfamily: int
    beta: Fraction


# Structures derived from a system alone, built on its first search: the
# compatibility graph of tau and tau', and the minimal empty subfamilies.
_graphs: WeakKeyDictionary = WeakKeyDictionary()
_minimal_empties: WeakKeyDictionary = WeakKeyDictionary()


def _derived(memo: WeakKeyDictionary, system: SetSystem, build: Callable):
    """``build(system)``, built once per system and kept in ``memo`` until
    the system goes."""
    value = memo.get(system)
    if value is None:
        value = memo[system] = build(system)
    return value


# ---------------------------------------------------------------------------
# Comatching number (tau) and comatching-with-intersection number (tau')
# ---------------------------------------------------------------------------


class CompatibilityGraph(NamedTuple):
    """The compatibility graph of a system's (member, point) pairs with the
    point outside the member, built once per system and shared by tau and
    tau'.

    (m, p) and (m', p') are compatible when p lies in m' and p' in m, which
    forces m != m' and p != p', so a comatching is a clique.  The pairs are
    bits in (member, point) order, and a clique's pairs in bit order are in
    member order.  The neighbours of (m, p) are ``containing[p] &
    inside[m]``: the pairs whose member contains p, among those whose point
    lies in m.  ``apart[i]`` holds the pairs below i that are not its
    neighbours, i bits, so n(n-1)/2 bits for n pairs: about 0.8 MB on
    Hamming(6,1)'s 3,648 pairs and 15 MB on Hamming(7,1)'s 15,360.  Greedy
    colouring from the highest pair down reads only this table.
    ``nonempty`` holds the pairs whose member has a point, the candidates
    of tau'.

    Two memos fill as the searches run.  ``meets`` maps a point set to the
    pairs whose member meets it (:meth:`meeting`), which tau' reads for the
    intersection of a node's members: one pair bitset per distinct
    intersection, keys and values about 0.24 MB on Hamming(6,1) (468
    intersections for 2,561 reads at 200,000 nodes), 0.80 MB on
    Hamming(6,2) and 2.3 MB on Hamming(7,1).  ``colourings`` maps a root
    to its greedy colour classes (:meth:`root_classes`), so the value
    passes of tau and tau' colour a shared root once.  Both go with the
    graph, and so with its system.
    """

    pairs: tuple[tuple[int, int], ...]
    containing: list[int]
    inside: list[int]
    apart: list[int]
    nonempty: int
    meets: dict[int, int]
    colourings: dict[int, list[int]]

    @classmethod
    def build(cls, system: SetSystem) -> "CompatibilityGraph":
        masks, full = system.masks, system.full_mask
        # by_member[m] and by_point[p]: the bits of the pairs of member m and
        # of point p.  The pairs of a member are consecutive bits.
        pairs: list[tuple[int, int]] = []
        by_member, by_point = [], [0] * system.num_points
        for m, mask in enumerate(masks):
            start, rest = len(pairs), full & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                by_point[p] |= 1 << len(pairs)
                pairs.append((m, p))
            by_member.append((1 << len(pairs)) - (1 << start))
        containing = [0] * system.num_points
        inside = [0] * system.num_members
        for m, mask in enumerate(masks):
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                containing[p] |= by_member[m]
                inside[m] |= by_point[p]
        nonempty = 0  # a member is nonempty when it contains some point
        for row in containing:
            nonempty |= row
        # Member m contains no point of its own pairs, so a neighbour of its
        # pair i lies below i exactly when it lies below m's first pair.
        apart = []
        for m, own in enumerate(by_member):
            first = len(apart)
            below = inside[m] & (1 << first) - 1
            for i in range(first, first + own.bit_count()):
                apart.append(((1 << i) - 1) ^ (containing[pairs[i][1]] & below))
        return cls(tuple(pairs), containing, inside, apart, nonempty, {}, {})

    def meeting(self, inter: int) -> int:
        """The pairs whose member meets the point set ``inter``."""
        meets = self.meets.get(inter)
        if meets is None:
            meets, rest = 0, inter
            while rest:
                bit = rest & -rest
                rest ^= bit
                meets |= self.containing[bit.bit_length() - 1]
            self.meets[inter] = meets
        return meets

    def root_classes(self, root: int) -> list[int]:
        """A fresh list of the colour classes of ``root``, as
        ``_colour_classes(root, apart, 0)`` returns them."""
        classes = self.colourings.get(root)
        if classes is None:
            classes = self.colourings[root] = _colour_classes(root, self.apart, 0)
        return classes[:]


def _comatching_search(
    system: SetSystem,
    budget: Optional[SearchBudget],
    need_common_point: bool,
) -> tuple[int, tuple[tuple[int, int], ...], int, bool]:
    """Shared maximum-clique search for tau and tau'.

    Returns (best size, best pairs as (point, member), common-point mask
    of the best solution, exact flag).

    The search runs in two steps over the compatibility graph, for tau'
    restricted to the pairs whose member is nonempty (a nonempty ground
    set always admits the size-0 certificate, but a positive tau' needs
    an extendable pair).  Every search is depth-first on an explicit
    stack, so its depth is not bounded by the recursion limit, and for
    tau' every node carries the intersection of its members, and its
    children keep only the pairs whose member meets it.

    1. The value pass (:func:`_value_pass`) branches in colour order.
       Each node colours its candidates greedily from the highest pair
       down and branches only on pairs whose class k has size + k > best,
       highest class first, dropping each tried pair from the node.  Once
       the classes above k are tried and dropped, the candidates left lie
       in classes 1..k, each independent, so no clique among them has more
       than k pairs: the cut loses no strictly larger clique, and the
       value is exact when the pass ends.
    2. Prefix decisions (:func:`_first_clique`) build the
       lexicographically first optimum one pair at a time, starting from
       the value pass's clique as the witness.  The lowest candidate is
       kept at no cost when it begins the witness or completes the
       clique; any other costs one node and a decision by the value pass,
       whose clique, when there is one, becomes the witness.  So
       certificates and reruns do not depend on the colour order.

    Both steps spend from the one budget.  A cut inside the value pass
    returns the best clique found so far, inexact.  A cut inside the
    decisions returns the value, which the value pass proved, as exact,
    with the value pass's clique as certificate.
    """
    graph = _derived(_graphs, system, CompatibilityGraph.build)
    budget = budget or SearchBudget()
    root = graph.nonempty if need_common_point else (1 << len(graph.pairs)) - 1
    full = system.full_mask
    clique, exact = _value_pass(system, graph, root, full, need_common_point, budget)
    if exact and clique:
        first = _first_clique(system, graph, root, need_common_point, budget, clique)
        clique = first or clique
    common = full
    for i in clique:
        common &= system.masks[graph.pairs[i][0]]
    pairs = tuple((graph.pairs[i][1], graph.pairs[i][0]) for i in clique)
    return len(clique), pairs, common if need_common_point else 0, exact


def _value_pass(
    system: SetSystem,
    graph: CompatibilityGraph,
    cand: int,
    inter: int,
    need_common_point: bool,
    budget: SearchBudget,
    floor: int = 0,
    stop: Optional[int] = None,
) -> tuple[tuple[int, ...], bool]:
    """A maximum clique among ``cand`` by colour-ordered branching, as (pair
    indices in ascending order, exact flag); ``inter`` is the intersection
    of the members chosen before.  Only cliques of more than ``floor``
    pairs count, else the clique is empty, and the first of ``stop`` pairs
    ends the pass: with ``floor = j - 1`` and ``stop = j`` it decides
    whether ``cand`` holds a clique of j pairs.  Only a pass with no stop
    reads the memo of root colourings."""
    masks, pairs, apart = system.masks, graph.pairs, graph.apart
    containing, inside, meets = graph.containing, graph.inside, graph.meets
    if stop is None:
        classes = graph.root_classes(cand)
    else:
        classes = _colour_classes(cand, apart, floor)
        if not classes:  # the colouring alone rules out a larger clique
            return (), True
    best: list[int] = []
    if not budget.spend():
        return (), False
    # stack[d] is [untried candidates, classes above cut, cut] of the node
    # at depth d, classes[j] being class number cut + j + 1; its pairs are
    # chosen[:d] and its intersection is inters[d].  ``bound`` is the size
    # to beat, the floor until a larger clique is found.
    stack = [[cand, classes, floor]]
    chosen: list[int] = []
    inters = [inter]
    bound = floor
    while stack:
        frame = stack[-1]
        cand, classes, cut = frame
        size = len(chosen)
        if size + cut + len(classes) <= bound:
            stack.pop()
            if chosen:
                chosen.pop()
                inters.pop()
            continue
        top = classes[-1]
        low = top & -top
        if top == low:
            classes.pop()
        else:
            classes[-1] = top ^ low
        frame[0] = cand = cand ^ low
        if not budget.spend():
            return tuple(sorted(best)), False
        i = low.bit_length() - 1
        chosen.append(i)
        m, p = pairs[i]
        inter = inters[-1] & masks[m]
        if size + 1 > bound:
            best = chosen[:]
            bound = size + 1
            if bound == stop:
                break
        child = cand & containing[p] & inside[m]
        if need_common_point and child:
            child &= meets.get(inter) or graph.meeting(inter)
        cut = bound - size - 1
        if child.bit_count() > cut:
            classes = _colour_classes(child, apart, cut)
            if classes:
                stack.append([child, classes, cut])
                inters.append(inter)
                continue
        chosen.pop()
    return tuple(sorted(best)), True


def _first_clique(
    system: SetSystem,
    graph: CompatibilityGraph,
    root: int,
    need_common_point: bool,
    budget: SearchBudget,
    witness: tuple[int, ...],
) -> Optional[tuple[int, ...]]:
    """The lexicographically first clique of ``len(witness)`` pairs among
    ``root``, or None if the budget runs out first.  ``witness`` is some
    clique of that size among ``root``, its pairs in ascending order.

    The clique grows one pair at a time, trying the prefix's candidates in
    ascending order.  The loop keeps one invariant: the witness is a
    clique of the remaining size among the candidates, compatible with
    the pairs chosen (for tau', its members meet their intersection), so
    the prefix extends to a clique of the full size.  The lowest candidate
    i is kept at no cost when it completes the clique or is the witness's
    first pair: no lower candidate is left, and the rest of the witness
    lies in i's later neighbours (for tau', those whose member meets the
    new intersection).  Otherwise one node is spent, and
    :func:`_value_pass` decides whether i's later neighbours hold a clique
    of the remaining size; if so i is kept and that clique becomes the
    witness, and if not i is dropped and the witness, all above i, stays."""
    masks, pairs = system.masks, graph.pairs
    chosen: list[int] = []
    cand, inter = root, system.full_mask
    while cand:
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        rest = len(witness) - 1
        if not rest:
            return (*chosen, i)
        m, p = pairs[i]
        meet = inter & masks[m]
        child = cand & graph.containing[p] & graph.inside[m]
        if need_common_point and child:
            child &= graph.meeting(meet)
        if i == witness[0]:
            found = witness[1:]
        else:
            if not budget.spend():
                return None
            found, decided = _value_pass(
                system, graph, child, meet, need_common_point, budget, rest - 1, rest
            )
            if not decided:
                return None
        if found:
            chosen.append(i)
            cand, inter, witness = child, meet, found
    return None


def _colour_classes(cand: int, apart: Sequence[int], cut: int) -> list[int]:
    """Greedy colouring of ``cand`` into independent sets, each built from
    the highest uncoloured pair down, so class 1 holds the highest pair and
    the classes' highest pairs descend.  Returns the classes numbered above
    ``cut`` as bitsets, in ascending class order.

    A class takes the highest pair i left in ``free`` and drops i and its
    neighbours from ``free``.  ``free`` then has no bit above i, so it
    keeps just the pairs in ``apart[i]``, the pairs below i that are not
    its neighbours."""
    classes = []
    number = 0
    while cand:
        free = cand
        members = 0
        while free:
            i = free.bit_length() - 1
            members |= 1 << i
            free &= apart[i]
        cand ^= members
        number += 1
        if number > cut:
            classes.append(members)
    return classes


def comatching_number(
    system: SetSystem, budget: Optional[SearchBudget] = None
) -> tuple[int, Comatching, bool]:
    """Largest induced matching in the bipartite complement, with certificate.

    ``exact`` is True when the search space was exhausted; on budget
    exhaustion the returned size is still a valid lower bound and the
    certificate still verifies.
    """
    size, pairs, _, exact = _comatching_search(system, budget, False)
    return size, Comatching(pairs), exact


def comatching_with_intersection_number(
    system: SetSystem, budget: Optional[SearchBudget] = None
) -> tuple[int, Optional[ComatchingWithIntersection], bool]:
    """Largest comatching whose members share a common point.

    Returns (tau', certificate or None for tau' = 0, exact).  Whenever both
    this and :func:`comatching_number` are exact, tau' is tau or tau - 1.
    """
    size, pairs, common, exact = _comatching_search(system, budget, True)
    if size == 0:
        return 0, None, exact
    common_point = (common & -common).bit_length() - 1
    return size, ComatchingWithIntersection(Comatching(pairs), common_point), exact


# ---------------------------------------------------------------------------
# Minimal empty subfamilies and the Helly number
# ---------------------------------------------------------------------------


def minimal_empty_subfamilies(system: SetSystem) -> tuple[frozenset[int], ...]:
    """All inclusion-minimal member selections with empty intersection.

    A selection has empty intersection exactly when the complements of its
    members cover the ground set, so these are the minimal hitting sets of
    the hypergraph {members missing x : x in ground}.  Enumerated by MMCS
    (Murakami and Uno, Discrete Appl. Math. 170, 2014), a depth-first
    search on an explicit stack that branches on the unhit point with the
    fewest allowed members, each child excluding the siblings tried before
    it, and pruned by criticality: every chosen member must stay the only
    chosen one missing some point.  The members that would break that for
    some chosen member are excluded before the children are built, one
    bitset per chosen member, so no child is built only to fail the test.
    Sorted by size, then as sorted member lists.  Enumerated once per
    system; later calls return the same tuple.
    """
    return _derived(_minimal_empties, system, _enumerate_minimal_empty)


def _enumerate_minimal_empty(system: SetSystem) -> tuple[frozenset[int], ...]:
    if system.num_points == 0:
        # Over an empty ground set even the empty selection intersects to
        # nothing, and it has no proper subselection, so it is the unique
        # minimal empty selection.
        return (frozenset(),)
    masks = system.masks
    everyone = (1 << system.num_members) - 1
    missing = _missing_members(system)
    if not all(missing):
        return ()  # some point lies in every member: nothing is empty

    # A node is (chosen, crits, uncov, excluded): point sets are bitsets
    # over points, member sets bitsets over members.  uncov is the
    # intersection of the chosen members, the points that no chosen member
    # misses yet, and crits[k] holds the critical points of chosen[k],
    # those that it alone misses.  A member kills chosen[k] when it misses
    # every point of crits[k], so the killers of chosen[k] are the AND of
    # ``missing`` over crits[k].  Crits only shrink along a branch, so a
    # killer stays one, and a node excludes every chosen member's killers
    # along with the siblings tried before the node.  A child that leaves
    # no point uncovered is then a minimal hitting set.
    killers_of: dict[int, int] = {}

    def killers(crit: int) -> int:
        """The members that miss every point of ``crit``."""
        members = killers_of.get(crit)
        if members is None:
            members, rest = everyone, crit
            while rest:
                bit = rest & -rest
                rest ^= bit
                members &= missing[bit.bit_length() - 1]
            killers_of[crit] = members
        return members

    results: list[tuple[int, ...]] = []
    stack = [((), [], system.full_mask, 0)]
    while stack:
        chosen, crits, uncov, excluded = stack.pop()
        allowed = everyone & ~excluded
        branch, fewest, rest = 0, system.num_members + 1, uncov
        while rest:
            bit = rest & -rest
            rest ^= bit
            members = missing[bit.bit_length() - 1] & allowed
            count = members.bit_count()
            if count < fewest:
                branch, fewest = members, count
                if count <= 1:  # one choice is forced; none ends the node
                    break
        tried = excluded
        while branch:
            bit = branch & -branch
            branch ^= bit
            j = bit.bit_length() - 1
            mask = masks[j]
            rest = uncov & mask
            if not rest:
                results.append(chosen + (j,))
            else:
                child = [c & mask for c in crits]
                child.append(uncov & ~mask)
                dead = 0
                for c in child:
                    dead |= killers(c)
                stack.append((chosen + (j,), child, rest, tried | dead))
            tried |= bit

    # By size, then as sorted lists: two stable sorts whose keys are C
    # functions.
    results.sort(key=sorted)
    results.sort(key=len)
    return tuple(map(frozenset, results))


def _missing_members(system: SetSystem) -> list[int]:
    """Per point p, the bitset of the members that miss p: the edge of p in
    the complement hypergraph.  Read from the sparser of the incidences and
    the non-incidences, so a system of near-full members costs about as
    little as one of small members."""
    full, everyone = system.full_mask, (1 << system.num_members) - 1
    inside = sum(mask.bit_count() for mask in system.masks)
    dense = 2 * inside > system.num_points * system.num_members
    rows = [0] * system.num_points  # the edges if dense, else the holders
    for j, mask in enumerate(system.masks):
        member, rest = 1 << j, full & ~mask if dense else mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            rows[bit.bit_length() - 1] |= member
    return rows if dense else [everyone ^ row for row in rows]


def helly_number(system: SetSystem) -> int:
    """Largest minimal empty subfamily size; 1 when every subfamily intersects.

    With that convention the defining implication holds vacuously for
    systems whose members share a point.
    """
    minimal = minimal_empty_subfamilies(system)
    if not minimal:
        return 1
    return max(len(s) for s in minimal)


# ---------------------------------------------------------------------------
# Colorful Helly number (eta)
# ---------------------------------------------------------------------------


def _has_empty_transversal(
    system: SetSystem, families: Sequence[SubfamilySelection]
) -> bool:
    """Whether one member per (nonempty) family can be chosen with empty
    intersection.

    Exactly when some minimal empty subfamily S of the members that occur
    maps one to one into the N positions, each member to a position whose
    family contains it: if S maps, choose its members there and anything
    elsewhere; conversely the distinct members of an empty transversal
    contain some minimal S, each chosen at its own position.  So only
    |S| <= N can map, and each S is one matching test in which member k
    of the subsystem may take the positions in ``holders[k]``.  No family
    holds the sentinel position N, so the test is nonzero exactly when a
    matching covers S, even when |S| = N.
    """
    n = len(families)
    occurring = sorted(set().union(*families))
    holders = [sum(1 << p for p in range(n) if j in families[p]) for j in occurring]
    sub = SetSystem(system.ground, tuple(system.members[j] for j in occurring))
    return any(
        _exposable_members([holders[k] for k in s], 1 << n)
        for s in minimal_empty_subfamilies(sub)
        if len(s) <= n
    )


def instance_admits_empty_transversal(
    system: SetSystem, instance: "ColorfulInstance"
) -> bool:
    """The matching test of :func:`_has_empty_transversal`; the replay check
    for refuting instances."""
    return _has_empty_transversal(system, instance.families)


def colorful_helly_number(
    system: SetSystem,
    budget: Optional[SearchBudget] = None,
    tau_prime: Optional[int] = None,
) -> tuple[int, bool, Optional[ColorfulInstance]]:
    """Least N such that every N-tuple of empty subfamilies admits an
    empty colorful transversal.

    Returns (eta, exact, refuting instance of size eta - 1 when eta >= 2).
    Under budget exhaustion eta is a lower bound, never below h, that the
    instance certifies.  Pass ``tau_prime`` only when it is exact.  The
    minimal empty subfamilies come from the system's enumeration, shared
    with :func:`minimal_empty_subfamilies`.

    Positions range over the minimal empty subfamilies, with repetition:
    shrinking a position to a minimal empty subfamily inside it preserves
    refutation, and enlarging a position preserves transversals, so this
    restriction changes nothing.

    The value is sandwiched first.  h - 1 copies of a largest minimal empty
    subfamily S refute, since any transversal uses at most h - 1 members of
    S, so eta >= h.  When the caller passes an exact ``tau_prime``, the
    witness arm of :func:`colorful_transversal_dichotomy` turns every
    refuting N-instance into a comatching-with-intersection of size N, so
    eta <= 1 + tau'; when the two bounds meet, eta is exact with no search.

    Otherwise refuting multisets are enumerated level by level, in
    lexicographic order, up to size tau' when it is known.  Below the size
    s of the smallest of the n minimal empty subfamilies every multiset
    refutes, as a transversal of fewer members always intersects: each
    level of size k + 1 < s is charged its comb(n + k, k + 1) candidates
    in one budget call and never built, and size s - 1 is walked lazily.
    Only the levels from size s up are stored, each as a map from every
    refuting multiset's prefix (all but its last index) to the bitset of
    its last indices, in lexicographic order.  A candidate with a
    one-element-dropped sub-multiset outside the stored level cannot
    refute and is skipped unscored (the Apriori rule); ``key + (i,)``
    passes it exactly when bit i is set in the entry of every ``key``
    with one position dropped, so a key's candidates are the AND of those
    entries.  The bound on exhaustion, h with the floor instance below
    size h, else size + 1 with the level's first key, does not depend on
    where in the level the budget ran out, so each key spends its
    candidates in one call.

    Every candidate costs one node and is scored by the special case of
    the matching criterion of :func:`_has_empty_transversal` in which
    every one-dropped sub-multiset refutes: then a minimal empty subfamily
    S can map into the positions only if it uses every one, so |S| = N and
    the map is a perfect matching.  Hence ``key + (i,)`` refutes exactly
    when family i contains no member t of a size-N subfamily S (a group)
    for which the positions of ``key`` match S - {t} perfectly.  A level
    with no group keeps every candidate.  A level whose g groups take
    g * 2**N <= 4,096 bits finds the matchable subsets of every group at
    once, through the bit-parallel subset lattice of
    :class:`_SubsetLattice`, so a candidate is one AND against a test mask
    of family i.  The lattice is exponential in N and linear in g, so a
    wider level falls back to :func:`_completions`, which runs one
    bipartite matching per key and per group that meets every position.

    Over a finite ground set every descending chain of intersections
    stabilizes, so restricting the definition to finite subfamilies loses
    nothing; the distinction only matters for infinite systems, which are
    out of scope here.
    """
    minimal = _derived(_minimal_empties, system, _enumerate_minimal_empty)
    if system.num_points == 0 or not minimal:
        # Every transversal intersects to the empty set, or no subfamily is
        # empty, so no instance refutes and the vacuous value applies.
        return 1, True, None
    h = max(len(sel) for sel in minimal)
    largest = next(sel for sel in minimal if len(sel) == h)
    floor_instance = ColorfulInstance((largest,) * (h - 1)) if h >= 2 else None
    if tau_prime is not None:
        if tau_prime < h - 1:
            raise InputError(f"tau_prime={tau_prime} is below h - 1 = {h - 1}")
        if h == 1 + tau_prime:
            return h, True, floor_instance
    budget = budget or SearchBudget()
    n, s = len(minimal), len(minimal[0])  # ``minimal`` is sorted by size
    # Below s every multiset refutes: the candidates of size k + 1 are all
    # comb(n + k, k + 1) multisets, charged at once and never built.
    for k in range(s - 1):
        if not budget.spend(comb(n + k, k + 1)):
            return h, False, floor_instance
    member_bits = [sum(1 << j for j in sel) for sel in minimal]
    families_of: list[list[int]] = [[] for _ in range(system.num_members)]
    for i, sel in enumerate(minimal):
        for j in sel:
            families_of[j].append(i)
    # Size s - 1 is walked lazily; from size s up a level maps each prefix
    # to the bitset of the last indices that complete it to a refuting
    # multiset, and ``level`` is empty until then.
    keys: Iterable[tuple[int, ...]] = combinations_with_replacement(range(n), s - 1)
    level: dict[tuple[int, ...], int] = {}
    size = s - 1
    while size != tau_prime:
        # A candidate key + (i,) refutes when tests[i] & block_of(key) is 0.
        groups = [sel for sel in minimal if len(sel) == size + 1]
        if not groups:
            tests, block_of = member_bits, lambda key: 0
        elif len(groups) << (size + 1) <= _LATTICE_BITS:
            lattice = _SubsetLattice(groups, families_of, n)
            tests, block_of = lattice.tests, lattice.row
        else:
            tests, block_of = member_bits, partial(
                _completions,
                member_bits=member_bits,
                groups=[sum(1 << j for j in sel) for sel in groups],
                meets=_meets(groups, minimal),
            )
        next_level: dict[tuple[int, ...], int] = {}
        for key in keys:
            # The Apriori test: every one-dropped sub-multiset refutes, as
            # all do when they are smaller than s.  At a stored level that
            # leaves the indices from key[-1] up that are set in the entry
            # of key with each one position dropped.
            if level:
                cands = -1 << key[-1]
                for j in range(size):
                    cands &= level.get(key[:j] + key[j + 1 :], 0)
                if not cands:
                    continue
                if not budget.spend(cands.bit_count()):
                    break
                block = block_of(key)
                refuting = 0
                while cands:
                    bit = cands & -cands
                    cands ^= bit
                    if not tests[bit.bit_length() - 1] & block:
                        refuting |= bit
            else:
                lo = key[-1] if key else 0
                if not budget.spend(n - lo):
                    break
                block = block_of(key)
                refuting = 0
                for i in range(lo, n):
                    if not tests[i] & block:
                        refuting |= 1 << i
            if refuting:
                next_level[key] = refuting
        if budget.exhausted or not next_level:
            break
        level, keys = next_level, _level_keys(next_level)
        size += 1
    exact = not budget.exhausted
    if not level or not exact and size < h:
        # A cut below h leaves the bound h.  When no multiset of size s
        # refutes, eta = h = s, and the floor instance is the first key of
        # size s - 1.
        return h, exact, floor_instance
    first = next(_level_keys(level))
    return size + 1, exact, ColorfulInstance(tuple(minimal[i] for i in first))


# A level is scored through the subset lattice when its g groups of size N
# take g * 2**N bits at most this many.
_LATTICE_BITS = 4096


def _level_keys(level: dict[tuple[int, ...], int]) -> Iterator[tuple[int, ...]]:
    """The multisets of a stored level, in lexicographic order."""
    for prefix, lasts in level.items():
        while lasts:
            bit = lasts & -lasts
            lasts ^= bit
            yield prefix + (bit.bit_length() - 1,)


class _SubsetLattice:
    """The subsets of every group that the positions of a key can match
    perfectly, as one int.

    Group g, a minimal empty subfamily of size N with its members taken in
    ascending order, owns bits g * 2**N up to (g + 1) * 2**N, and bit U of
    its block stands for the members whose indices are the bits of U.
    ``row(key)`` has bit U set in every block whose group's U can be
    matched one to one by the positions of ``key``, each position to a
    member of its own family.  The row of the empty key sets bit 0 of
    every block, and appending family j maps each matched U without member
    t to U + {t} when t lies in family j, that is ``(row & step) << 2**t``
    for the pairs (2**t, step) in ``steps[j]``.

    ``tests[i]`` has bit S - {t} of group S's block for each member t of S
    in family i, so ``key + (i,)`` admits an empty transversal exactly
    when ``row(key) & tests[i]`` is nonzero.  Keys arrive in lexicographic
    order and the rows of the previous key's prefixes are kept, so a key
    extends only from the first position where it differs.
    """

    def __init__(
        self,
        groups: Sequence[frozenset[int]],
        families_of: Sequence[Sequence[int]],
        n: int,
    ) -> None:
        size = len(groups[0])
        width = 1 << size
        # without[t]: the bits U of one block that leave member t out.
        without = [
            sum(1 << u for u in range(width) if not u >> t & 1) for t in range(size)
        ]
        steps = [[0] * size for _ in range(n)]
        self.tests = [0] * n
        for g, group in enumerate(groups):
            base = g * width
            for t, member in enumerate(sorted(group)):
                step = without[t] << base
                test = 1 << base + width - 1 - (1 << t)
                for i in families_of[member]:
                    steps[i][t] |= step
                    self.tests[i] |= test
        self.steps = [
            [(1 << t, step) for t, step in enumerate(row) if step] for row in steps
        ]
        self.key = (-1,) * (size - 1)
        self.rows = [sum(1 << g * width for g in range(len(groups)))]

    def row(self, key: tuple[int, ...]) -> int:
        rows, steps, last = self.rows, self.steps, self.key
        d = 0
        if key != last:  # both have size - 1 positions, so they differ at d
            while key[d] == last[d]:
                d += 1
        del rows[d + 1 :]
        row = rows[d]
        for j in key[d:]:
            grown = 0
            for shift, step in steps[j]:
                grown |= (row & step) << shift
            rows.append(grown)
            row = grown
        self.key = key
        return row


def _meets(
    groups: Sequence[frozenset[int]], minimal: Sequence[frozenset[int]]
) -> list[int]:
    """Per family, the bitset of the groups it meets: the OR over its
    members of the groups that hold each member."""
    holding: dict[int, int] = {}
    for g, group in enumerate(groups):
        for j in group:
            holding[j] = holding.get(j, 0) | 1 << g
    meets = []
    for sel in minimal:
        entry = 0
        for j in sel:
            entry |= holding.get(j, 0)
        meets.append(entry)
    return meets


def _completions(
    key: tuple[int, ...],
    member_bits: Sequence[int],
    groups: Sequence[int],
    meets: Sequence[int],
) -> int:
    """The members s of some group S, a minimal empty subfamily of size
    len(key) + 1 as a member bitset, such that the positions of ``key`` can
    be matched one to one onto S - {s}, each to a member of its own family.
    Only groups that meet every position can qualify, and a group whose
    members are all found already can add none."""
    common = (1 << len(groups)) - 1
    for j in key:
        common &= meets[j]
    out = 0
    while common:
        bit = common & -common
        common ^= bit
        group = groups[bit.bit_length() - 1]
        if group & ~out:
            out |= _exposable_members([member_bits[j] & group for j in key], group)
    return out


def _exposable_members(adjacency: Sequence[int], members: int) -> int:
    """The members left uncovered by some matching that covers every
    position, where position p may take the members in ``adjacency[p]``;
    0 when no matching covers every position.

    Positions are matched in turn, each by a breadth-first search for an
    augmenting path.  Under the final matching, a member can be left
    uncovered exactly when an alternating path leads to it from a member
    that is uncovered now.  Both searches are loops, so long paths do not
    reach Python's recursion limit.
    """
    owner = [0] * len(adjacency)  # the member bit matched to each position
    holder: dict[int, int] = {}  # the position holding each matched member bit
    taken = 0
    for root, adj in enumerate(adjacency):
        direct = adj & ~taken
        if direct:  # the common case: a free member needs no search
            bit = direct & -direct
            owner[root] = bit
            holder[bit] = root
            taken |= bit
            continue
        via: dict[int, int] = {}  # member bit -> the position that reached it
        seen = 0
        frontier = [root]
        free = 0
        while frontier and not free:
            reached = []
            for p in frontier:
                new = adjacency[p] & ~seen
                seen |= new
                while new:
                    bit = new & -new
                    new ^= bit
                    via[bit] = p
                    if not bit & taken:
                        free = bit
                        break
                    reached.append(holder[bit])
                if free:
                    break
            frontier = reached
        if not free:
            return 0
        taken |= free
        while free:
            p = via[free]
            holder[free] = p
            owner[p], free = free, owner[p]
    # Positions next to a newly reached member hand over their own member.
    out = fresh = members & ~taken
    pending = range(len(adjacency))
    while fresh:
        fresh = 0
        rest = []
        for p in pending:
            if adjacency[p] & out:
                fresh |= owner[p]
            else:
                rest.append(p)
        pending = rest
        out |= fresh
    return out


# ---------------------------------------------------------------------------
# The constructive dichotomy
# ---------------------------------------------------------------------------


def colorful_transversal_dichotomy(
    system: SetSystem, instance: ColorfulInstance
) -> DichotomyOutcome:
    """Empty transversal, or a comatching-with-intersection of full size.

    Starting from any transversal, as long as the current intersection I is
    nonempty and some position i is redundant (F_i contains the intersection
    of the others), replace F_i by a member of its subfamily avoiding a
    point of I; the full intersection shrinks strictly, so this ends within
    |ground| rounds.  If no position is redundant, every position i yields a
    point in (intersection of the others) minus F_i, and any point of I is a
    common point: a verified witness of size N.
    """
    instance.validate(system)
    masks = system.masks
    full = system.full_mask
    families = [sorted(sel) for sel in instance.families]
    n = len(families)

    choice = [fam[0] for fam in families]
    while True:
        total = full
        for j in choice:
            total &= masks[j]
        if total == 0:
            return DichotomyOutcome(transversal=tuple(choice))
        others = _partial_intersections(masks, choice, full)
        redundant = next(
            (i for i in range(n) if others[i] & ~masks[choice[i]] == 0), None
        )
        if redundant is None:
            pairs = []
            for i in range(n):
                avoid_mask = others[i] & ~masks[choice[i]]
                point = (avoid_mask & -avoid_mask).bit_length() - 1
                pairs.append((point, choice[i]))
            common = (total & -total).bit_length() - 1
            witness = ComatchingWithIntersection(Comatching(tuple(pairs)), common)
            return DichotomyOutcome(witness=witness)
        x = (total & -total).bit_length() - 1
        replacement = next(
            j for j in families[redundant] if not (masks[j] >> x & 1)
        )
        choice[redundant] = replacement


def _partial_intersections(
    masks: Sequence[int], choice: Sequence[int], full: int
) -> list[int]:
    """For each position i, the intersection of all chosen members but i."""
    n = len(choice)
    prefix = [full] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] & masks[choice[i]]
    suffix = [full] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] & masks[choice[i]]
    return [prefix[i] & suffix[i + 1] for i in range(n)]


# ---------------------------------------------------------------------------
# Fractional-Helly profiling
# ---------------------------------------------------------------------------


def fractional_helly_profile(system: SetSystem, k: int) -> FractionalHellyProfile:
    """Exact counts: fraction of intersecting k-tuples, and the largest
    intersecting subfamily as a fraction of the family."""
    n = system.num_members
    if k < 0 or k > n:
        raise InputError(f"tuple size {k} out of range 0..{n}")
    full = system.full_mask
    intersecting = 0
    for tup in combinations(range(n), k):
        mask = full
        for j in tup:
            mask &= system.masks[j]
        if mask != 0:
            intersecting += 1
    total = comb(n, k)
    alpha = Fraction(intersecting, total) if total else Fraction(0)
    if system.num_points == 0:
        largest = 0
    else:
        largest = max(
            sum(1 for j in range(n) if system.masks[j] >> p & 1)
            for p in range(system.num_points)
        )
    beta = Fraction(largest, n) if n else Fraction(0)
    return FractionalHellyProfile(n, k, intersecting, alpha, largest, beta)
