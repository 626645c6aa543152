import math
from dataclasses import replace
from fractions import Fraction

import pytest

from comatch.core import InputError
from comatch.constructions import (
    CYCLE_SHARPNESS_CAP,
    TORUS_VERTEX_CAP,
    GeometricCircleConfig,
    gen_circle_config,
    gen_cycle_sharpness,
    gen_good_join_complex,
    gen_hamming_system,
    gen_poly_comatching,
    gen_torus_grid_complex,
    verify_poly_comatching,
)
from comatch.search import (
    comatching_number,
    comatching_with_intersection_number,
    helly_number,
)


class TestCycleSharpness:
    def test_m2_sets(self):
        s = gen_cycle_sharpness(2)
        named = {
            name: sorted(s.ground[i] for i in elems) for name, elems in s.members
        }
        assert named == {
            "A": ["1", "2"],
            "B": ["3", "4"],
            "C": ["2", "3"],
            "D": ["1", "4"],
        }

    def test_m3_shape(self):
        s = gen_cycle_sharpness(3)
        assert s.num_points == 6 and s.num_members == 6
        assert all(len(elems) == 4 for _, elems in s.members)

    def test_rejects_m1(self):
        with pytest.raises(InputError):
            gen_cycle_sharpness(1)

    def test_size_cap(self):
        # 2M members of 2M - 2 points: 261,120 member entries at the cap.
        s = gen_cycle_sharpness(CYCLE_SHARPNESS_CAP)
        assert CYCLE_SHARPNESS_CAP == 256
        assert sum(len(elems) for _, elems in s.members) == 261_120
        with pytest.raises(InputError, match="M = 257 exceeds the cap 256"):
            gen_cycle_sharpness(257)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_true_invariants(self, m):
        s = gen_cycle_sharpness(m)
        tau, _, e1 = comatching_number(s)
        taup, _, e2 = comatching_with_intersection_number(s)
        assert e1 and e2
        assert tau == (4 * m) // 3  # no-three-consecutive bound in the 2M-cycle
        assert taup == m


class TestHammingSystem:
    def test_radius0_singletons(self):
        s = gen_hamming_system(2, 0, 2)
        assert s.num_members == 4
        assert all(len(elems) == 1 for _, elems in s.members)
        tau, _, exact = comatching_number(s)
        assert (tau, exact) == (2, True)

    def test_n1_t0_helly(self):
        assert helly_number(gen_hamming_system(1, 0, 2)) == 2

    def test_n4_ball_size(self):
        s = gen_hamming_system(4, 1, 2)
        assert s.num_members == 16
        assert all(len(elems) == 5 for _, elems in s.members)

    def test_cap_enforced(self):
        with pytest.raises(InputError):
            gen_hamming_system(13, 1, 2)
        # 2^15000 has more digits than int-to-str allows; the check never
        # computes q^n and names n, q and the cap instead.
        with pytest.raises(InputError, match="n = 15000, q = 2 .* cap 4096"):
            gen_hamming_system(15000, 1)

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            gen_hamming_system(3, 3, 2)
        with pytest.raises(InputError):
            gen_hamming_system(3, 1, 1)


class TestCircleConfig:
    def test_incidence_pattern(self):
        config, system = gen_circle_config()
        for i in range(4):
            for j in range(4):
                assert config.incidence(i, j) == (i != j)
        for j in range(4):
            assert len(system.member_elements(j)) == 3

    def test_invariants_of_abstract_system(self):
        _, system = gen_circle_config()
        tau, _, e1 = comatching_number(system)
        taup, _, e2 = comatching_with_intersection_number(system)
        assert (tau, e1) == (4, True)
        assert (taup, e2) == (3, True)

    @pytest.mark.parametrize("point_index", range(4))
    def test_perturbing_any_point_breaks_an_incidence(self, point_index):
        config, _ = gen_circle_config()
        shifted = list(config.points)
        x, y = shifted[point_index]
        shifted[point_index] = (x + 100 * config.tolerance, y)
        moved = GeometricCircleConfig(
            config.circles,
            config.circle_names,
            tuple(shifted),
            config.point_names,
            config.tolerance,
        )

        def pattern(c):
            out = []
            for i in range(4):
                for j in range(4):
                    try:
                        out.append(c.incidence(i, j))
                    except InputError:
                        out.append("ambiguous")
            return out

        assert pattern(moved) != pattern(config)


class TestPolyComatching:
    @pytest.mark.parametrize(
        "d,cap,m", [(1, 1, 2), (1, 2, 3), (2, 1, 3), (2, 2, 6)]
    )
    def test_generated_size_and_verification(self, d, cap, m):
        pc = gen_poly_comatching(d, cap)
        assert len(pc.polynomials) == m == math.comb(cap + d, d)
        assert verify_poly_comatching(pc).ok

    def test_common_point_obstruction_detected(self):
        pc = gen_poly_comatching(1, 1)
        with_common = replace(
            pc, common_point=tuple(Fraction(0) for _ in range(pc.num_vars))
        )
        verdict = verify_poly_comatching(with_common)
        assert not verdict.ok
        assert any("no common point can exist" in v for v in verdict.violations)

    def test_any_single_coefficient_mutation_rejected(self):
        pc = gen_poly_comatching(2, 1)
        for which, delta in ((0, 1), (1, -1), (2, 7)):
            poly = list(pc.polynomials[which])
            exps, coeff = poly[0]
            poly[0] = (exps, coeff + delta)
            mutated = replace(
                pc,
                polynomials=pc.polynomials[:which]
                + (tuple(poly),)
                + pc.polynomials[which + 1 :],
            )
            assert not verify_poly_comatching(mutated).ok

    def test_duplicate_polynomial_rejected(self):
        pc = gen_poly_comatching(1, 1)
        mutated = replace(
            pc, polynomials=(pc.polynomials[0], pc.polynomials[0])
        )
        assert not verify_poly_comatching(mutated).ok

    def test_smallest_case_shape(self):
        pc = gen_poly_comatching(1, 1)
        assert len(pc.points) == 2
        assert all(len(p) == 1 for p in pc.points)

    def test_dimension_count_cap(self):
        with pytest.raises(InputError):
            gen_poly_comatching(5, 5)  # C(10,5) = 252 over the cap

    @pytest.mark.parametrize("d, cap", [(0, 2), (2, 0)])
    def test_rejects_no_variables_or_degree(self, d, cap):
        with pytest.raises(InputError, match="at least one variable"):
            gen_poly_comatching(d, cap)


class TestTorusGrid:
    def test_4x2_shape(self):
        k = gen_torus_grid_complex(4, 2)
        assert k.num_vertices == 16
        assert len(k.facets) == 16
        assert all(len(f) == 4 for f in k.facets)

    def test_wraparound_facet(self):
        k = gen_torus_grid_complex(4, 2)
        # The subsquare anchored at cell 13 wraps to the top row.
        wrapped = frozenset(
            k.vertices.index(label) for label in ("13", "14", "1", "2")
        )
        assert wrapped in k.facets

    def test_rejects_small_grid(self):
        with pytest.raises(InputError):
            gen_torus_grid_complex(3, 2)
        with pytest.raises(InputError, match="subsquare size"):
            gen_torus_grid_complex(4, 0)

    def test_vertex_cap(self):
        assert gen_torus_grid_complex(32, 1).num_vertices == TORUS_VERTEX_CAP == 1024
        with pytest.raises(InputError, match="k = 33 .* cap 1024"):
            gen_torus_grid_complex(33, 1)
        with pytest.raises(InputError, match="k = 200 "):
            gen_torus_grid_complex(200, 2)


class TestGoodJoin:
    def test_fold1_is_torus(self):
        assert gen_good_join_complex(1) == gen_torus_grid_complex(4, 2)

    def test_fold2_shape(self):
        j = gen_good_join_complex(2)
        assert j.num_vertices == 32
        assert len(j.facets) == 256
        assert all(len(f) == 8 for f in j.facets)

    def test_cap(self):
        with pytest.raises(InputError):
            gen_good_join_complex(3)

    def test_rejects_fold_zero(self):
        with pytest.raises(InputError, match="fold must be at least 1"):
            gen_good_join_complex(0)
