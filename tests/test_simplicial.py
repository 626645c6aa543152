import random

import pytest

from comatch.core import InputError, SetSystem, verify_comatching
from comatch.constructions import (
    gen_cycle_sharpness,
    gen_hamming_system,
    gen_torus_grid_complex,
)
from comatch.randsys import random_complex, random_system
from comatch.search import SearchBudget, comatching_number
from comatch.simplicial import (
    ComplexComatching,
    SimplicialComplex,
    are_isomorphic,
    complex_comatching_number,
    complex_to_set_system,
    faces_of_dim,
    induced_subcomplex,
    join,
    nerve,
    verify_complex_comatching,
)


@pytest.fixture
def three_cycle():
    return SimplicialComplex.from_labels(
        ["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]
    )


@pytest.fixture
def torus():
    return gen_torus_grid_complex(4, 2)


class TestSimplicialComplex:
    def test_raw_constructor_rejects_dominated_facets(self):
        with pytest.raises(InputError):
            SimplicialComplex(("a", "b"), (frozenset({0}), frozenset({0, 1})))

    def test_build_prunes_dominated_facets(self):
        k = SimplicialComplex.build(["a", "b"], [[0], [0, 1]])
        assert k.facets == (frozenset({0, 1}),)

    def test_rejects_uncovered_vertices(self):
        with pytest.raises(InputError):
            SimplicialComplex(("a", "b"), (frozenset({0}),))

    def test_isolated_vertices_reported(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b"], ["c"]])
        assert k.isolated_vertices() == (2,)


class TestNerve:
    def test_sharpness_m2_nerve_is_four_cycle(self):
        n = nerve(gen_cycle_sharpness(2))
        assert n.vertices == ("A", "B", "C", "D")
        assert set(n.facets) == {
            frozenset({0, 2}),
            frozenset({0, 3}),
            frozenset({1, 2}),
            frozenset({1, 3}),
        }

    def test_single_nonempty_member(self):
        s = SetSystem.build(["a"], [("F", [0])])
        n = nerve(s)
        assert n.vertices == ("F",) and n.facets == (frozenset({0}),)

    def test_empty_member_becomes_isolated_with_warning(self):
        s = SetSystem.build(["a", "b"], [("E", []), ("F", [0]), ("G", [0, 1])])
        with pytest.warns(UserWarning, match=r"isolated.*'E'"):
            n = nerve(s)
        assert frozenset({0}) in n.facets  # E kept as a singleton facet
        assert 0 in n.isolated_vertices()

    @pytest.mark.parametrize("seed", range(30))
    def test_nerve_comatching_bounded_by_system_comatching(self, seed):
        system = random_system(random.Random(seed + 100), 6, 6)
        if any(not elems for _, elems in system.members):
            return
        n = nerve(system)
        tau_sys, _, e1 = comatching_number(system)
        tau_nerve, cert, e2 = complex_comatching_number(n)
        assert e1 and e2
        assert verify_complex_comatching(n, cert).ok
        assert tau_nerve <= tau_sys


class TestComplexComatching:
    def test_torus_value(self, torus):
        tau, cert, exact = complex_comatching_number(torus)
        assert (tau, exact) == (2, True)
        assert verify_complex_comatching(torus, cert).ok

    def test_full_simplex_is_zero(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b", "c"]])
        tau, cert, exact = complex_comatching_number(k)
        assert (tau, len(cert), exact) == (0, 0, True)

    def test_bad_witness_rejected(self, three_cycle):
        # facet {a,b} meets {a,c} in {a}, not {c}
        cert = ComplexComatching(((0, 0), (2, 0)))
        assert not verify_complex_comatching(three_cycle, cert).ok

    def test_empty_complex(self):
        k = SimplicialComplex((), ())
        assert complex_comatching_number(k) == (0, ComplexComatching(()), True)

    def test_certificate_equals_oracle(self, torus):
        # The certificate is the first comatching of the largest size in
        # combinations order, each vertex with its lowest-indexed witness.
        from oracles import oracle_lex_first_complex_comatching

        cases = [random_complex(random.Random(seed + 4400), 7, 5) for seed in range(60)]
        cases += [torus, nerve(gen_hamming_system(4, 1))]
        for k in cases:
            expected = oracle_lex_first_complex_comatching(k)
            assert complex_comatching_number(k) == (len(expected), expected, True)

    def test_node_counts(self, torus):
        for k, nodes in ((torus, 136), (nerve(gen_hamming_system(4, 1)), 312)):
            clock = SearchBudget().clock()
            complex_comatching_number(k, clock)
            assert clock.nodes == nodes

    @pytest.mark.filterwarnings("ignore:members with no points")
    @pytest.mark.parametrize("seed", range(8))
    def test_node_budget_sweep(self, seed):
        # Nerves of random systems: full searches of 1 to 58 nodes.
        k = nerve(random_system(random.Random(seed + 4500), 9, 9))
        tau = complex_comatching_number(k)[0]
        for nodes in range(31):
            value, cert, exact = complex_comatching_number(k, SearchBudget(nodes))
            assert len(cert) == value and verify_complex_comatching(k, cert).ok
            assert value <= tau and (not exact or value == tau), nodes


class TestConversion:
    def test_three_cycle_shape(self, three_cycle):
        s = complex_to_set_system(three_cycle)
        assert s.num_points == 6
        assert [len(elems) for _, elems in s.members] == [3, 3, 3]

    def test_single_edge(self):
        edge = SimplicialComplex.from_labels(["a", "b"], [["a", "b"]])
        s = complex_to_set_system(edge)
        named = {
            name: sorted(s.ground[i] for i in elems) for name, elems in s.members
        }
        assert named == {"a": ["a", "{a+b}"], "b": ["b", "{a+b}"]}

    def test_isolated_vertex_rejected(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b"], ["c"]])
        with pytest.raises(InputError, match="isolated"):
            complex_to_set_system(k)

    def test_torus_roundtrip_and_tau(self, torus):
        s = complex_to_set_system(torus)
        assert are_isomorphic(nerve(s), torus)
        tau, cert, exact = comatching_number(s)
        assert (tau, exact) == (2, True)
        assert verify_comatching(s, cert).ok

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_isomorphism_and_tau_bound_on_random_complexes(self, seed):
        k = random_complex(random.Random(seed + 200), 6, 5)
        if k.isolated_vertices():
            return
        s = complex_to_set_system(k)
        assert are_isomorphic(nerve(s), k)
        tau_sys, _, e1 = comatching_number(s)
        tau_k, _, e2 = complex_comatching_number(k)
        assert e1 and e2
        assert tau_sys <= max(2, tau_k)


class TestJoin:
    def test_cone_over_complex(self, three_cycle):
        apex = SimplicialComplex.from_labels(["p"], [["p"]])
        cone = join(three_cycle, apex)
        assert all(len(f) == 3 for f in cone.facets)
        assert len(cone.facets) == 3

    def test_edge_join_edge_is_tetrahedron(self):
        edge = SimplicialComplex.from_labels(["a", "b"], [["a", "b"]])
        t = join(edge, edge)
        assert len(t.facets) == 1 and len(t.facets[0]) == 4

    def test_three_cycle_square(self, three_cycle):
        j = join(three_cycle, three_cycle)
        assert len(j.facets) == 9
        assert all(len(f) == 4 for f in j.facets)

    @pytest.mark.parametrize("seed", range(20))
    def test_facet_counts_multiply(self, seed):
        rng = random.Random(seed + 300)
        a = random_complex(rng, 5, 4)
        b = random_complex(rng, 5, 4)
        j = join(a, b)
        assert len(j.facets) == len(a.facets) * len(b.facets)

    @pytest.mark.parametrize("seed", range(15))
    def test_join_comatching_subadditive(self, seed):
        rng = random.Random(seed + 400)
        a = random_complex(rng, 4, 3)
        b = random_complex(rng, 4, 3)
        ta, _, e1 = complex_comatching_number(a)
        tb, _, e2 = complex_comatching_number(b)
        tj, _, e3 = complex_comatching_number(join(a, b))
        assert e1 and e2 and e3
        assert tj <= ta + tb

    @pytest.mark.parametrize("seed", range(10))
    def test_join_associative_up_to_isomorphism(self, seed):
        rng = random.Random(seed + 500)
        a = random_complex(rng, 3, 2)
        b = random_complex(rng, 3, 2)
        c = random_complex(rng, 3, 2)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert are_isomorphic(left, right)


class TestInducedSubcomplex:
    def test_full_vertex_set_is_identity(self, three_cycle):
        w = induced_subcomplex(three_cycle, range(3))
        assert w.facets == three_cycle.facets

    def test_empty_subset_is_empty_complex(self, three_cycle):
        w = induced_subcomplex(three_cycle, [])
        assert w.num_vertices == 0 and w.facets == ()

    def test_torus_square_restriction_is_full_simplex(self, torus):
        square = sorted(torus.facets[0])
        w = induced_subcomplex(torus, square)
        assert w.facets == (frozenset(range(4)),)

    def test_bad_subset_rejected(self, three_cycle):
        with pytest.raises(InputError):
            induced_subcomplex(three_cycle, [5])


class TestFacesOfDim:
    def test_triangle_edges(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b", "c"]])
        assert len(faces_of_dim(k, 1)) == 3

    def test_torus_counts(self, torus):
        assert len(faces_of_dim(torus, 0)) == 16
        assert len(faces_of_dim(torus, 3)) == 16

    def test_empty_face(self, torus):
        assert faces_of_dim(torus, -1) == (frozenset(),)

    def test_lexicographic_order(self, torus):
        faces = faces_of_dim(torus, 1)
        keys = [tuple(sorted(f)) for f in faces]
        assert keys == sorted(keys)


class TestIsomorphism:
    def test_relabelled_torus_is_isomorphic(self, torus):
        relabelled = SimplicialComplex(
            tuple(f"cell-{v}" for v in torus.vertices), torus.facets
        )
        assert are_isomorphic(torus, relabelled)

    def test_different_facet_sizes_are_not(self, three_cycle):
        path = SimplicialComplex.from_labels(
            ["a", "b", "c"], [["a", "b"], ["b", "c"]]
        )
        assert not are_isomorphic(three_cycle, path)
