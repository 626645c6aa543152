import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatch.core import (
    Comatching,
    ComatchingWithIntersection,
    InputError,
    SetSystem,
    Verdict,
    intersect_subfamily,
    verify_comatching,
    verify_comatching_with_intersection,
)
from comatch.randsys import random_system

from oracles import complement_incidence, oracle_is_induced_matching_in_complement


@pytest.fixture
def sharp2():
    return SetSystem.from_labels(
        ["1", "2", "3", "4"],
        [("A", ["1", "2"]), ("B", ["3", "4"]), ("C", ["2", "3"]), ("D", ["4", "1"])],
    )


def small_systems():
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_system(random.Random(seed), 6, 6)
    )


class TestSetSystem:
    def test_rejects_duplicate_ground_labels(self):
        with pytest.raises(InputError):
            SetSystem.build(["a", "a"], [])

    def test_rejects_duplicate_member_names(self):
        with pytest.raises(InputError):
            SetSystem.build(["a"], [("F", [0]), ("F", [0])])

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(InputError):
            SetSystem.build(["a"], [("F", [1])])

    def test_duplicate_subsets_under_distinct_names_are_fine(self):
        s = SetSystem.build(["a", "b"], [("F", [0]), ("G", [0])])
        assert s.member_elements(0) == s.member_elements(1)

    def test_empty_system(self):
        s = SetSystem.build([], [])
        assert s.num_points == 0 and s.num_members == 0


class TestIntersectSubfamily:
    def test_worked_pair(self, sharp2):
        assert intersect_subfamily(sharp2, [0, 2]) == frozenset({1})  # A ∩ C = {2}

    def test_empty_selection_gives_ground(self, sharp2):
        assert intersect_subfamily(sharp2, []) == frozenset(range(4))

    def test_disjoint_pair(self, sharp2):
        assert intersect_subfamily(sharp2, [0, 1]) == frozenset()  # A ∩ B

    def test_bad_index_is_input_error(self, sharp2):
        with pytest.raises(InputError):
            intersect_subfamily(sharp2, [7])


class TestVerifyComatching:
    def test_worked_pair_accepts(self, sharp2):
        cert = Comatching(((0, 2), (2, 3)))  # (x=1, C), (x=3, D)
        assert verify_comatching(sharp2, cert).ok

    def test_empty_comatching_is_vacuously_ok(self, sharp2):
        assert verify_comatching(sharp2, Comatching(())).ok

    def test_point_in_own_member_is_violation(self, sharp2):
        cert = Comatching(((0, 0),))  # point 1 in A
        verdict = verify_comatching(sharp2, cert)
        assert not verdict.ok
        assert any("own member" in v for v in verdict.violations)

    def test_repeated_point_is_violation_not_error(self, sharp2):
        cert = Comatching(((2, 0), (2, 1)))
        assert not verify_comatching(sharp2, cert).ok

    def test_out_of_range_is_error_not_verdict(self, sharp2):
        with pytest.raises(InputError):
            verify_comatching(sharp2, Comatching(((9, 0),)))

    def test_violations_name_points_and_members_by_label(self, sharp2):
        # Point index 2 is '3', which lies in B but not in A.
        verdict = verify_comatching(sharp2, Comatching(((2, 0), (2, 1))))
        assert verdict.violations == (
            "points are not pairwise distinct: ['3', '3']",
            "pair 1: point '3' lies in its own member 'B'",
            "point '3' of pair 1 is missing from member 'A' of pair 0",
        )
        verdict = verify_comatching(sharp2, Comatching(((1, 3), (0, 3))))
        assert verdict.violations[0] == "members are not pairwise distinct: ['D', 'D']"

    @settings(max_examples=120, deadline=None)
    @given(small_systems(), st.data())
    def test_agrees_with_induced_matching_oracle(self, system, data):
        k = data.draw(st.integers(0, min(3, system.num_points, system.num_members)))
        pts = data.draw(
            st.lists(
                st.integers(0, system.num_points - 1), min_size=k, max_size=k
            )
        )
        mems = data.draw(
            st.lists(
                st.integers(0, system.num_members - 1), min_size=k, max_size=k
            )
        )
        pairs = tuple(zip(pts, mems))
        mine = verify_comatching(system, Comatching(pairs)).ok
        theirs = oracle_is_induced_matching_in_complement(system, pairs)
        assert mine == theirs


class TestVerifyComatchingWithIntersection:
    def test_worked_example(self, sharp2):
        cert = ComatchingWithIntersection(Comatching(((2, 0), (0, 2))), 1)
        assert verify_comatching_with_intersection(sharp2, cert).ok

    def test_common_point_outside_member_is_violation(self, sharp2):
        cert = ComatchingWithIntersection(Comatching(((2, 0), (0, 2))), 3)
        verdict = verify_comatching_with_intersection(sharp2, cert)
        assert not verdict.ok
        assert any("common point" in v for v in verdict.violations)

    def test_violations_name_points_and_members_by_label(self, sharp2):
        # '4' lies in neither A nor C; '3' is also pair 0's matched point.
        cert = ComatchingWithIntersection(Comatching(((2, 0), (0, 2))), 3)
        assert verify_comatching_with_intersection(sharp2, cert).violations == (
            "common point '4' is missing from member 'A' of pair 0",
            "common point '4' is missing from member 'C' of pair 1",
        )
        cert = ComatchingWithIntersection(Comatching(((2, 0), (0, 2))), 2)
        assert verify_comatching_with_intersection(sharp2, cert).violations == (
            "common point '3' is missing from member 'A' of pair 0",
            "common point '3' equals the matched point of pair 0",
        )

    def test_empty_base_with_any_common_point(self, sharp2):
        cert = ComatchingWithIntersection(Comatching(()), 0)
        assert verify_comatching_with_intersection(sharp2, cert).ok

    @settings(max_examples=80, deadline=None)
    @given(small_systems(), st.data())
    def test_accepted_certificates_strip_to_accepted_comatchings(self, system, data):
        k = data.draw(st.integers(0, min(2, system.num_points, system.num_members)))
        pts = data.draw(
            st.lists(st.integers(0, system.num_points - 1), min_size=k, max_size=k)
        )
        mems = data.draw(
            st.lists(st.integers(0, system.num_members - 1), min_size=k, max_size=k)
        )
        common = data.draw(st.integers(0, system.num_points - 1))
        cert = ComatchingWithIntersection(Comatching(tuple(zip(pts, mems))), common)
        if verify_comatching_with_intersection(system, cert).ok:
            assert verify_comatching(system, cert.base).ok


class TestComplementIncidence:
    def test_member_equal_to_ground_has_no_edges(self):
        s = SetSystem.build(["a", "b"], [("F", [0, 1])])
        assert complement_incidence(s) == ()

    def test_empty_member_has_all_edges(self):
        s = SetSystem.build(["a", "b", "c"], [("F", [])])
        assert len(complement_incidence(s)) == 3

    def test_worked_count(self, sharp2):
        assert len(complement_incidence(sharp2)) == 8


class TestVerdict:
    def test_consistency_enforced(self):
        with pytest.raises(InputError):
            Verdict(True, ("broken",))
        with pytest.raises(InputError):
            Verdict(False, ())
        with pytest.raises(InputError):
            Verdict.failed([])
