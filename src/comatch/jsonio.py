"""JSON formats: set systems, complexes, certificates, reports.

Set systems serialize canonically (ground sorted, member order preserved,
element lists sorted) and round-trip bit-exactly after one canonical pass.
Complex loading canonicalizes facets (sorted, deduplicated, dominated
facets dropped) and reports what it changed.  Certificates are
label-based, so they stay valid across index renumbering, and every kind
is replayable by the verify entry point.  Every field a loader reads is
checked for presence and JSON type first, so a malformed document is an
InputError naming the field.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .core import (
    Comatching,
    ComatchingWithIntersection,
    InputError,
    SetSystem,
)
from .search import ColorfulInstance, DichotomyOutcome
from .simplicial import ComplexComatching, SimplicialComplex, maximal_sets
from .topology import CollapseSequence, HomologyProfile, LerayVerdict

__all__ = [
    "set_system_to_doc",
    "set_system_from_doc",
    "complex_to_doc",
    "complex_from_doc",
    "detect_kind",
    "certificate_to_doc",
    "certificate_from_doc",
    "instance_from_doc",
    "profile_to_doc",
    "dump_canonical",
]


def dump_canonical(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# JSON type -> how an error names one value, and a list of them.
_TYPE_NAMES = {
    list: ("a list", "lists"),
    str: ("a string", "strings"),
    int: ("an integer", "integers"),
    bool: ("true or false", "booleans"),
}


def _is(value, kind: type) -> bool:
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _field(doc, key: str, kind: type, where: str, items: type | None = None):
    """``doc[key]``, checked to be a JSON ``kind`` (a list of ``items`` if
    given); an InputError naming the field otherwise."""
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in doc:
        raise InputError(f"{where} needs {key!r}")
    value = doc[key]
    if not _is(value, kind) or items and not all(_is(x, items) for x in value):
        expected = f"a list of {_TYPE_NAMES[items][1]}" if items else _TYPE_NAMES[kind][0]
        raise InputError(f"{where}: {key!r} must be {expected}")
    return value


# ---------------------------------------------------------------------------
# Set systems
# ---------------------------------------------------------------------------


def set_system_to_doc(system: SetSystem) -> dict:
    order = sorted(range(len(system.ground)), key=lambda i: system.ground[i])
    return {
        "ground": [system.ground[i] for i in order],
        "members": [
            {
                "name": name,
                "elements": sorted(system.ground[i] for i in elems),
            }
            for name, elems in system.members
        ],
    }


def set_system_from_doc(doc: dict) -> SetSystem:
    ground = _field(doc, "ground", list, "set system", items=str)
    members = []
    for k, m in enumerate(_field(doc, "members", list, "set system")):
        where = f"member {k}"
        name = _field(m, "name", str, where)
        members.append((name, _field(m, "elements", list, where, items=str)))
    return SetSystem.from_labels(ground, members)


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------


def complex_to_doc(complex_: SimplicialComplex) -> dict:
    return {
        "vertices": list(complex_.vertices),
        "facets": sorted(
            [sorted(complex_.vertex_labels(f)) for f in complex_.facets]
        ),
    }


def complex_from_doc(doc: dict) -> tuple[SimplicialComplex, list[str]]:
    """Load a complex, canonicalizing facets; returns (complex, notes)."""
    vertices = _field(doc, "vertices", list, "complex", items=str)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise InputError("vertex labels must be distinct")
    notes = []
    raw = []
    for k, f in enumerate(_field(doc, "facets", list, "complex", items=list)):
        if not f:
            raise InputError(f"facet {k} must be a nonempty list of vertex labels")
        unknown = [v for v in f if not isinstance(v, str) or v not in index]
        if unknown:
            raise InputError(f"facet {k} references unknown vertex {unknown[0]!r}")
        raw.append(frozenset(index[v] for v in f))
        if len(set(f)) != len(f):
            notes.append(f"facet {k} had repeated vertices; deduplicated")
    facets = maximal_sets(raw)
    if len(facets) != len(set(raw)):
        notes.append(
            f"dropped {len(set(raw)) - len(facets)} dominated facet(s)"
        )
    if len(set(raw)) != len(raw):
        notes.append(f"dropped {len(raw) - len(set(raw))} duplicate facet(s)")
    complex_ = SimplicialComplex(tuple(vertices), facets)
    isolated = complex_.isolated_vertices()
    if isolated:
        labels = [vertices[v] for v in isolated]
        notes.append(f"isolated vertices present: {labels}")
    return complex_, notes


def detect_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise InputError("a document must be a JSON object")
    if "ground" in doc and "members" in doc:
        return "set_system"
    if "vertices" in doc and "facets" in doc:
        return "complex"
    if "kind" in doc:
        return "certificate"
    raise InputError("cannot tell what this document describes")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def certificate_to_doc(cert, system=None, complex_=None) -> dict:
    """Label-based JSON for any certificate kind."""
    if isinstance(cert, ComatchingWithIntersection):
        base = certificate_to_doc(cert.base, system=system)
        return {
            "kind": "comatching_with_intersection",
            "pairs": base["pairs"],
            "common_point": system.ground[cert.common_point],
        }
    if isinstance(cert, Comatching):
        return {
            "kind": "comatching",
            "pairs": [
                {
                    "point": system.ground[p],
                    "member": system.member_name(m),
                }
                for p, m in cert.pairs
            ],
        }
    if isinstance(cert, ComplexComatching):
        return {
            "kind": "complex_comatching",
            "pairs": [
                {
                    "vertex": complex_.vertices[v],
                    "facet": sorted(complex_.vertex_labels(complex_.facets[f])),
                }
                for v, f in cert.pairs
            ],
        }
    if isinstance(cert, CollapseSequence):
        return {
            "kind": "collapse_sequence",
            "d": cert.d,
            "strict_size": False,  # one collapse rule; comatch-report/1 keeps the field
            "steps": [
                {
                    "free_face": sorted(complex_.vertex_labels(face)),
                    "coface": sorted(complex_.vertex_labels(coface)),
                }
                for face, coface in cert.steps
            ],
        }
    if isinstance(cert, LerayVerdict):
        if cert.witness is None:
            raise InputError("only failing Leray verdicts carry a witness to emit")
        vertices, dim = cert.witness
        return {
            "kind": "leray_witness",
            "d": cert.d,
            "vertices": sorted(complex_.vertices[v] for v in vertices),
            "homology_dim": dim,
        }
    if isinstance(cert, DichotomyOutcome):
        if cert.is_transversal:
            return {
                "kind": "empty_transversal",
                "members": [system.member_name(j) for j in cert.transversal],
            }
        return certificate_to_doc(cert.witness, system=system)
    if isinstance(cert, ColorfulInstance):
        return {"kind": "refuting_instance", **instance_to_doc(cert, system)}
    raise InputError(f"cannot serialize certificate of type {type(cert).__name__}")


def _indexer(labels, what: str):
    """Label -> index lookup over ``labels``, built once per document."""
    index = {label: i for i, label in enumerate(labels)}

    def lookup(label) -> int:
        try:
            return index[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown {what} {label!r}") from None

    return lookup


def _member_indexer(system: SetSystem):
    return _indexer((name for name, _ in system.members), "member name")


def certificate_from_doc(doc: dict, system=None, complex_=None):
    """Parse a certificate document against its target object."""
    kind = _field(doc, "kind", str, "certificate")
    if kind in ("comatching", "comatching_with_intersection"):
        _need(system, kind)
        point = _indexer(system.ground, "ground element")
        member = _member_indexer(system)
        base = Comatching(
            tuple(
                (
                    point(_field(p, "point", str, f"pair {k}")),
                    member(_field(p, "member", str, f"pair {k}")),
                )
                for k, p in enumerate(_field(doc, "pairs", list, kind))
            )
        )
        if kind == "comatching":
            return base
        common = point(_field(doc, "common_point", str, kind))
        return ComatchingWithIntersection(base, common)
    if kind == "empty_transversal":
        _need(system, kind)
        member = _member_indexer(system)
        return DichotomyOutcome(
            transversal=tuple(member(m) for m in _field(doc, "members", list, kind))
        )
    if kind == "refuting_instance":
        _need(system, kind)
        return instance_from_doc(doc, system)
    if kind in ("complex_comatching", "collapse_sequence", "leray_witness"):
        _need(complex_, kind)
        vertex = _indexer(complex_.vertices, "vertex")
    if kind == "complex_comatching":
        facet_index = {f: i for i, f in enumerate(complex_.facets)}
        pairs = []
        for k, p in enumerate(_field(doc, "pairs", list, kind)):
            v = vertex(_field(p, "vertex", str, f"pair {k}"))
            labels = _field(p, "facet", list, f"pair {k}")
            facet = frozenset(vertex(u) for u in labels)
            if facet not in facet_index:
                raise InputError(f"certificate facet {sorted(labels)} is not a facet")
            pairs.append((v, facet_index[facet]))
        return ComplexComatching(tuple(pairs))
    if kind == "collapse_sequence":
        steps = tuple(
            (
                frozenset(vertex(v) for v in _field(s, "free_face", list, f"step {k}")),
                frozenset(vertex(v) for v in _field(s, "coface", list, f"step {k}")),
            )
            for k, s in enumerate(_field(doc, "steps", list, kind))
        )
        if "strict_size" in doc:  # true and false replay alike; others are errors
            _field(doc, "strict_size", bool, kind)
        return CollapseSequence(_field(doc, "d", int, kind), steps)
    if kind == "leray_witness":
        vertices = frozenset(vertex(v) for v in _field(doc, "vertices", list, kind))
        witness = (vertices, _field(doc, "homology_dim", int, kind))
        return LerayVerdict(_field(doc, "d", int, kind), "fails", witness)
    raise InputError(f"unknown certificate kind {kind!r}")


def _need(obj, kind: str) -> None:
    if obj is None:
        raise InputError(f"certificate kind {kind!r} does not match the object file")


def instance_from_doc(doc: dict, system: SetSystem) -> ColorfulInstance:
    member = _member_indexer(system)
    return ColorfulInstance.build(
        [member(name) for name in fam]
        for fam in _field(doc, "families", list, "instance", items=list)
    )


def instance_to_doc(instance: ColorfulInstance, system: SetSystem) -> dict:
    return {
        "families": [
            sorted(system.member_name(j) for j in fam) for fam in instance.families
        ]
    }


def profile_to_doc(profile: Optional[HomologyProfile]) -> dict:
    """The reduced Betti numbers, or the budget-exhausted status for None."""
    if profile is None:
        return {"status": "budget_exhausted"}
    doc = {
        "reduced_betti": list(profile.reduced_betti),
        "arithmetic_mode": "exact-rational",  # the only arithmetic; kept in the schema
        "exact": True,  # kept in comatch-report/1: perfbench/gate.py reads it
    }
    if profile.notes:
        doc["notes"] = list(profile.notes)
    return doc
