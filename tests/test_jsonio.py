import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatch.core import Comatching, ComatchingWithIntersection, InputError, SetSystem
from comatch.constructions import gen_cycle_sharpness, gen_torus_grid_complex
from comatch.jsonio import (
    certificate_from_doc,
    certificate_to_doc,
    complex_from_doc,
    complex_to_doc,
    detect_kind,
    dump_canonical,
    instance_from_doc,
    instance_to_doc,
    set_system_from_doc,
    set_system_to_doc,
)
from comatch.randsys import random_system
from comatch.search import (
    ColorfulInstance,
    DichotomyOutcome,
    comatching_with_intersection_number,
)
from comatch.simplicial import ComplexComatching
from comatch.topology import CollapseSequence, LerayVerdict


def systems():
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_system(random.Random(seed), 6, 6)
    )


class TestSetSystemFormat:
    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_roundtrip_is_bit_exact_after_canonicalization(self, system):
        once = dump_canonical(set_system_to_doc(system))
        again = dump_canonical(
            set_system_to_doc(set_system_from_doc(json.loads(once)))
        )
        assert once == again

    def test_ground_sorted_member_order_preserved(self):
        doc = set_system_to_doc(
            set_system_from_doc(
                {
                    "ground": ["z", "a", "m"],
                    "members": [
                        {"name": "second", "elements": ["z"]},
                        {"name": "first", "elements": ["a", "z"]},
                    ],
                }
            )
        )
        assert doc["ground"] == ["a", "m", "z"]
        assert [m["name"] for m in doc["members"]] == ["second", "first"]
        assert doc["members"][1]["elements"] == ["a", "z"]

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            set_system_from_doc(
                {"ground": ["a"], "members": [{"name": "F", "elements": ["b"]}]}
            )

    def test_detect_kind(self):
        assert detect_kind({"ground": [], "members": []}) == "set_system"
        assert detect_kind({"vertices": [], "facets": []}) == "complex"
        with pytest.raises(InputError):
            detect_kind({"nonsense": 1})


class TestComplexFormat:
    def test_roundtrip_torus(self):
        torus = gen_torus_grid_complex(4, 2)
        loaded, notes = complex_from_doc(complex_to_doc(torus))
        assert notes == []
        assert set(loaded.facets) == set(torus.facets)

    def test_loader_reports_canonicalization(self):
        doc = {
            "vertices": ["a", "b", "c"],
            "facets": [["a"], ["a", "b"], ["a", "b"], ["c", "c"]],
        }
        loaded, notes = complex_from_doc(doc)
        assert set(loaded.facets) == {frozenset({0, 1}), frozenset({2})}
        assert any("dominated" in n for n in notes)
        assert any("duplicate" in n or "repeated" in n for n in notes)
        assert any("isolated" in n for n in notes)

    def test_empty_facet_rejected(self):
        with pytest.raises(InputError):
            complex_from_doc({"vertices": ["a"], "facets": [[]]})


class TestCertificates:
    def test_comatching_roundtrip(self):
        system = gen_cycle_sharpness(2)
        cert = Comatching(((2, 0), (0, 1)))
        doc = certificate_to_doc(cert, system=system)
        assert certificate_from_doc(doc, system=system) == cert

    def test_comatching_with_intersection_roundtrip(self):
        system = gen_cycle_sharpness(2)
        _, cert, _ = comatching_with_intersection_number(system)
        doc = certificate_to_doc(cert, system=system)
        assert certificate_from_doc(doc, system=system) == cert

    def test_unknown_member_name_rejected(self):
        system = gen_cycle_sharpness(2)
        with pytest.raises(InputError):
            certificate_from_doc(
                {"kind": "comatching", "pairs": [{"point": "1", "member": "Z"}]},
                system=system,
            )

    def test_instance_parsing(self):
        system = gen_cycle_sharpness(2)
        instance = instance_from_doc(
            {"families": [["A", "B"], ["C", "D"]]}, system
        )
        assert instance.families == (frozenset({0, 1}), frozenset({2, 3}))

    def test_refuting_instance_is_a_certificate_kind(self):
        system = gen_cycle_sharpness(2)
        instance = ColorfulInstance.build([[0, 1], [2, 3]])
        doc = certificate_to_doc(instance, system=system)
        assert doc == {"kind": "refuting_instance", **instance_to_doc(instance, system)}
        assert certificate_from_doc(doc, system=system) == instance
        with pytest.raises(InputError):
            certificate_from_doc(doc, complex_=gen_torus_grid_complex(4, 2))


class TestNameLookups:
    """Certificates and instances over the 300 members X - {i} of a
    300-point X, whose refuting instance names every member 299 times."""

    N = 300

    @pytest.fixture(scope="class")
    def system(self):
        n = self.N
        return SetSystem.build(
            [f"x{p}" for p in range(n)],
            [(f"F{i}", [p for p in range(n) if p != i]) for i in range(n)],
        )

    def test_instance_roundtrip(self, system):
        instance = ColorfulInstance.build([range(self.N)] * (self.N - 1))
        doc = json.loads(dump_canonical(instance_to_doc(instance, system)))
        assert instance_from_doc(doc, system) == instance

    def test_certificate_roundtrips(self, system):
        comatching = Comatching(tuple((i, i) for i in range(self.N)))
        with_point = ComatchingWithIntersection(
            Comatching(tuple((i, i) for i in range(self.N - 1))), self.N - 1
        )
        transversal = DichotomyOutcome(transversal=tuple(range(self.N - 1, -1, -1)))
        for cert in (comatching, with_point, transversal):
            doc = certificate_to_doc(cert, system=system)
            assert certificate_from_doc(doc, system=system) == cert

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"kind": "comatching", "pairs": [{"point": "x0", "member": "G"}]},
                "unknown member name 'G'",
            ),
            (
                {"kind": "comatching", "pairs": [{"point": "y", "member": "F0"}]},
                "unknown ground element 'y'",
            ),
            (
                {
                    "kind": "comatching_with_intersection",
                    "pairs": [{"point": "x0", "member": "F0"}],
                    "common_point": "y",
                },
                "unknown ground element 'y'",
            ),
            (
                {"kind": "empty_transversal", "members": ["F1", ["F2"]]},
                "unknown member name ['F2']",
            ),
        ],
    )
    def test_unknown_names_in_certificates(self, system, doc, message):
        with pytest.raises(InputError) as err:
            certificate_from_doc(doc, system=system)
        assert str(err.value) == message

    def test_unknown_name_in_instance(self, system):
        with pytest.raises(InputError) as err:
            instance_from_doc({"families": [["F0", "F1"], ["F2", "F300"]]}, system)
        assert str(err.value) == "unknown member name 'F300'"


class TestComplexCertificateLookups:
    @pytest.fixture
    def torus(self):
        return gen_torus_grid_complex(4, 2)

    def test_roundtrips(self, torus):
        facet = sorted(torus.facets[3])
        certs = [
            ComplexComatching(((facet[0], 5), (facet[1], 3))),
            CollapseSequence(2, ((frozenset(facet[:1]), torus.facets[3]),)),
        ]
        for cert in certs:
            doc = certificate_to_doc(cert, complex_=torus)
            assert certificate_from_doc(doc, complex_=torus) == cert
        # comatch-report/2 drops the field of the removed exactly-d rule.
        assert "strict_size" not in doc
        labels = [torus.vertices[v] for v in facet]
        doc = {"kind": "leray_witness", "d": 1, "vertices": labels, "homology_dim": 1}
        verdict = certificate_from_doc(doc, complex_=torus)
        assert verdict == LerayVerdict(1, "fails", (frozenset(facet), 1))

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"kind": "complex_comatching", "pairs": [{"vertex": "?", "facet": []}]},
                "unknown vertex '?'",
            ),
            (
                {"kind": "collapse_sequence", "d": 1, "steps": [
                    {"free_face": ["?"], "coface": []}
                ]},
                "unknown vertex '?'",
            ),
            (
                {"kind": "leray_witness", "d": 1, "vertices": ["?"], "homology_dim": 1},
                "unknown vertex '?'",
            ),
        ],
    )
    def test_unknown_vertices(self, torus, doc, message):
        with pytest.raises(InputError) as err:
            certificate_from_doc(doc, complex_=torus)
        assert str(err.value) == message

    def test_non_facet_rejected(self, torus):
        v = torus.vertices[0]
        doc = {"kind": "complex_comatching", "pairs": [{"vertex": v, "facet": [v]}]}
        with pytest.raises(InputError) as err:
            certificate_from_doc(doc, complex_=torus)
        assert str(err.value) == f"certificate facet {[v]} is not a facet"
