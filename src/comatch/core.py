"""Finite set systems, certificate verification and the search budget.

A set system is a finite ground set together with an indexed family of
subsets.  The family is a sequence, not a set: repeated subsets under
different names are legal (two equal subsets can never occupy two slots
of one comatching, so allowing duplicates is harmless and lets repeated
subfamilies be modelled faithfully).

A comatching of size k is the combinatorial core of everything here:
points x_1..x_k and members F_1..F_k with x_i in F_j exactly when
i != j.  Equivalently, an induced matching in the bipartite complement
of the incidence graph.  A comatching *with intersection* additionally
carries a common point lying in every matched member.

All values are immutable after construction and all operations are pure
functions, so concurrent use on shared inputs is safe, except that every
search counts its nodes into the :class:`SearchBudget` it is passed: a
caller shares a budget by passing one object to several searches.  A
:class:`SetSystem` carries no cache: ``search`` keeps the structures it
derives from a system in memos of its own, keyed weakly by the system,
so systems stay safe to share across threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "InputError",
    "SetSystem",
    "Comatching",
    "ComatchingWithIntersection",
    "SubfamilySelection",
    "Verdict",
    "SearchBudget",
    "intersect_subfamily",
    "verify_comatching",
    "verify_comatching_with_intersection",
]


class InputError(ValueError):
    """Malformed input: out-of-range indices, duplicate labels, bad shapes.

    Deliberately distinct from a failing Verdict: a Verdict judges a
    well-formed certificate, an InputError rejects a malformed one.
    """


class SearchBudget:
    """Optional node and wall-clock limits (absent means unbounded) and the
    nodes spent against them; the deadline starts when the budget is built."""

    __slots__ = ("max_nodes", "deadline", "nodes", "exhausted")

    def __init__(
        self, max_nodes: Optional[int] = None, max_millis: Optional[int] = None
    ) -> None:
        if max_nodes is not None and max_nodes < 0:
            raise InputError("max_nodes must be nonnegative")
        if max_millis is not None and max_millis < 0:
            raise InputError("max_millis must be nonnegative")
        self.max_nodes = max_nodes
        self.deadline = (
            None if max_millis is None else time.monotonic() + max_millis / 1000.0
        )
        self.nodes = 0
        self.exhausted = False

    def spend(self, count: int = 1) -> bool:
        """Count ``count`` nodes, False once exhausted.  Passing ``max_nodes``
        leaves ``nodes`` at ``max_nodes + 1``, as single spends would; the
        deadline is checked once per call."""
        if self.exhausted:
            return False
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.nodes = self.max_nodes + 1
            self.exhausted = True
        elif self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted


#: A selection of member indices; the empty selection is allowed and its
#: intersection is the whole ground set.
SubfamilySelection = frozenset[int]


@dataclass(frozen=True)
class SetSystem:
    """Ground set plus indexed family of subsets, all by integer index.

    ``ground`` holds the element labels (distinct strings); ``members``
    holds (name, element-index-set) pairs with distinct names.
    """

    ground: tuple[str, ...]
    members: tuple[tuple[str, frozenset[int]], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.ground)) != len(self.ground):
            raise InputError("ground labels must be distinct")
        names = [name for name, _ in self.members]
        if len(set(names)) != len(names):
            raise InputError("member names must be distinct")
        n = len(self.ground)
        masks = []
        for name, elems in self.members:
            mask = 0
            for e in elems:
                if not (0 <= e < n):
                    raise InputError(
                        f"member {name!r} references element index {e} "
                        f"outside ground of size {n}"
                    )
                mask |= 1 << e
            masks.append(mask)
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def build(
        cls, ground: Iterable[str], members: Iterable[tuple[str, Iterable[int]]]
    ) -> "SetSystem":
        return cls(
            tuple(ground),
            tuple((name, frozenset(elems)) for name, elems in members),
        )

    @classmethod
    def from_labels(
        cls, ground: Iterable[str], members: Iterable[tuple[str, Iterable[str]]]
    ) -> "SetSystem":
        """Build with member elements given by ground labels."""
        ground = tuple(ground)
        index = {label: i for i, label in enumerate(ground)}
        resolved = []
        for name, labels in members:
            try:
                resolved.append((name, frozenset(index[x] for x in labels)))
            except KeyError as exc:
                raise InputError(
                    f"member {name!r} references unknown element {exc.args[0]!r}"
                ) from None
        return cls(ground, tuple(resolved))

    @property
    def num_points(self) -> int:
        return len(self.ground)

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def member_name(self, j: int) -> str:
        return self.members[j][0]

    def member_elements(self, j: int) -> frozenset[int]:
        return self.members[j][1]

    def contains(self, j: int, point: int) -> bool:
        """Whether ground point ``point`` lies in member ``j``."""
        return bool(self.masks[j] >> point & 1)

    def check_point(self, i: int) -> None:
        if not (0 <= i < len(self.ground)):
            raise InputError(f"point index {i} out of range 0..{len(self.ground) - 1}")

    def check_member(self, j: int) -> None:
        if not (0 <= j < len(self.members)):
            raise InputError(f"member index {j} out of range 0..{len(self.members) - 1}")


@dataclass(frozen=True)
class Comatching:
    """Pairs (point index, member index) with x_i in F_j iff i != j."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.pairs)


@dataclass(frozen=True)
class ComatchingWithIntersection:
    """A comatching plus a common point lying in every matched member."""

    base: Comatching
    common_point: int

    def __len__(self) -> int:
        return len(self.base)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certificate check: ok, or a list of named violations."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.ok != (not self.violations):
            raise InputError("verdict ok flag must match emptiness of violations")

    @classmethod
    def passed(cls) -> "Verdict":
        return cls(True, ())

    @classmethod
    def failed(cls, violations: Iterable[str]) -> "Verdict":
        v = tuple(violations)
        if not v:
            raise InputError("a failed verdict needs at least one violation")
        return cls(False, v)


def intersect_subfamily(system: SetSystem, selection: Iterable[int]) -> frozenset[int]:
    """Intersection of the selected members, as a set of ground indices.

    The empty selection intersects to the full ground set.
    """
    mask = intersection_mask(system, selection)
    return frozenset(i for i in range(system.num_points) if mask >> i & 1)


def intersection_mask(system: SetSystem, selection: Iterable[int]) -> int:
    """Bitmask form of :func:`intersect_subfamily` (hot-path helper)."""
    sel = frozenset(selection)
    for j in sel:
        system.check_member(j)
    mask = system.full_mask
    for j in sel:
        mask &= system.masks[j]
    return mask


def verify_comatching(system: SetSystem, cert: Comatching) -> Verdict:
    """Check the comatching pattern x_i in F_j iff i != j against ``system``.

    Raises :class:`InputError` for out-of-range indices; returns a failed
    Verdict for well-formed certificates that violate the definition.
    Violations name points by ground label and members by name, as the
    certificates do.
    """
    for point, member in cert.pairs:
        system.check_point(point)
        system.check_member(member)
    violations = []
    points = [system.ground[p] for p in cert.points]
    members = [system.member_name(m) for m in cert.member_indices]
    if len(set(points)) != len(points):
        violations.append(f"points are not pairwise distinct: {points}")
    if len(set(members)) != len(members):
        violations.append(f"members are not pairwise distinct: {members}")
    for i, (p_i, m_i) in enumerate(cert.pairs):
        if system.contains(m_i, p_i):
            violations.append(
                f"pair {i}: point {points[i]!r} lies in its own member {members[i]!r}"
            )
        for j, (_, m_j) in enumerate(cert.pairs):
            if i != j and not system.contains(m_j, p_i):
                violations.append(
                    f"point {points[i]!r} of pair {i} is missing from member "
                    f"{members[j]!r} of pair {j}"
                )
    return Verdict.passed() if not violations else Verdict.failed(violations)


def verify_comatching_with_intersection(
    system: SetSystem, cert: ComatchingWithIntersection
) -> Verdict:
    """Comatching check plus: the common point lies in every matched member."""
    system.check_point(cert.common_point)
    base = verify_comatching(system, cert.base)
    violations = list(base.violations)
    common = system.ground[cert.common_point]
    for i, (point, member) in enumerate(cert.base.pairs):
        if not system.contains(member, cert.common_point):
            violations.append(
                f"common point {common!r} is missing from member "
                f"{system.member_name(member)!r} of pair {i}"
            )
        if cert.common_point == point:
            violations.append(
                f"common point {common!r} equals the matched point of pair {i}"
            )
    return Verdict.passed() if not violations else Verdict.failed(violations)
