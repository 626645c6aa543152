import random
import warnings

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
    complex_comatching_number,
    complex_to_set_system,
    faces_of_dim,
    induced_subcomplex,
    join,
    maximal_sets,
    nerve,
    verify_complex_comatching,
)

from oracles import same_complex


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

    def test_rejects_duplicate_vertex_labels(self):
        with pytest.raises(InputError, match="distinct"):
            SimplicialComplex(("a", "a"), (frozenset({0, 1}),))

    def test_from_labels_rejects_unknown_vertex(self):
        with pytest.raises(InputError, match="unknown vertex 'b'"):
            SimplicialComplex.from_labels(["a"], [["a", "b"]])

    def test_isolated_vertices_reported(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b"], ["c"]])
        assert k.isolated_vertices() == (2,)

    @pytest.mark.parametrize("seed", range(10))
    def test_incidence_equals_naive_references(self, seed):
        # Random facet lists with empty sets, duplicates and out-of-range
        # vertices: maximal_sets, the constructor's error text, containing
        # and isolated_vertices all agree with pairwise and per-vertex scans.
        from oracles import (
            oracle_complex_error,
            oracle_containing,
            oracle_isolated_vertices,
            oracle_maximal_sets,
        )

        rng = random.Random(seed + 5200)
        for _ in range(300):
            n = rng.randint(0, 8)
            raw = []
            for _ in range(rng.randint(0, 9)):
                raw.append(
                    frozenset(
                        rng.randint(-1, n) if rng.random() < 0.05 else rng.randrange(n or 1)
                        for _ in range(rng.randint(0, n or 1))
                    )
                )
            if raw and rng.random() < 0.3:
                raw.append(rng.choice(raw))
            vertices = tuple(f"v{i}" for i in range(n))
            assert maximal_sets(raw) == oracle_maximal_sets(raw)
            candidates = (
                tuple(raw),
                tuple(dict.fromkeys(f for f in raw if f)),
                maximal_sets(raw),
            )
            for facets in candidates:
                expected = oracle_complex_error(vertices, facets)
                try:
                    k = SimplicialComplex(vertices, facets)
                except InputError as exc:
                    assert str(exc) == expected
                    continue
                assert expected is None
                assert k.containing == oracle_containing(k)
                assert k.isolated_vertices() == oracle_isolated_vertices(k)

    def test_large_path_builds(self):
        # Construction is not pairwise over facets: 20,000 facets build and
        # a dominated one is still found.
        n = 20_000
        facets = tuple(frozenset({i, i + 1}) for i in range(n))
        k = SimplicialComplex(tuple(map(str, range(n + 1))), facets)
        assert k.containing[0] == 1 and k.containing[n] == 1 << (n - 1)
        assert bin(k.containing[7]) == bin(0b11 << 6)
        with pytest.raises(InputError, match=r"facet \[5\] is contained in facet \[4, 5\]"):
            SimplicialComplex(k.vertices, facets + (frozenset({5}),))


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

    def test_empty_member_becomes_isolated_without_warning(self):
        s = SetSystem.build(["a", "b"], [("E", []), ("F", [0]), ("G", [0, 1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    def test_out_of_range_pair_is_input_error(self, three_cycle):
        for pair, message in (((3, 0), "vertex index 3"), ((0, 3), "facet index 3")):
            with pytest.raises(InputError, match=message):
                verify_complex_comatching(three_cycle, ComplexComatching((pair,)))

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
        # A frame stops trying vertices once the rest cannot beat the best:
        # the boundary of a simplex on n vertices is itself a comatching,
        # found by the root and one node per vertex, n + 1 nodes in all.
        boundary = SimplicialComplex(
            tuple(str(v) for v in range(100)),
            tuple(frozenset(range(100)) - {v} for v in range(100)),
        )
        cases = ((torus, 120), (nerve(gen_hamming_system(4, 1)), 227), (boundary, 101))
        for k, nodes in cases:
            budget = SearchBudget()
            complex_comatching_number(k, budget)
            assert budget.nodes == nodes

    def test_equals_comatching_number_of_the_facet_system(self, torus):
        # "F_v meets M in M - {v}" is "x_i lies in F_j iff i != j", so a
        # comatching of K is a comatching of the set system (vertices,
        # facets), and the clique search over that system finds the same
        # value.  The two searches may return different certificates.
        cases = [torus, nerve(gen_hamming_system(4, 1))]
        cases += [nerve(gen_cycle_sharpness(m)) for m in (3, 4, 5)]
        rng = random.Random(4600)
        cases += [random_complex(rng, 7, 7) for _ in range(200)]
        for k in cases:
            members = tuple((str(i), f) for i, f in enumerate(k.facets))
            facets = SetSystem(k.vertices, members)
            tau_k, cert_k, exact_k = complex_comatching_number(k)
            tau, cert, exact = comatching_number(facets)
            assert (tau_k, exact_k) == (tau, exact) == (tau, True), k
            assert verify_complex_comatching(k, cert_k).ok
            assert verify_comatching(facets, cert).ok

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

    def test_fallback_label_skips_taken_labels(self):
        # Facet {a, b} is labelled "{a+b}", and its fallback "{a+b}#0" is a
        # vertex label too, so the next free suffix is taken.
        k = SimplicialComplex.from_labels(
            ["a", "b", "{a+b}", "{a+b}#0"], [["a", "b"], ["{a+b}", "{a+b}#0"]]
        )
        s = complex_to_set_system(k)
        assert s.ground[4:] == ("{a+b}#1", "{{a+b}+{a+b}#0}")
        assert same_complex(nerve(s), k)

    def test_isolated_vertex_rejected(self):
        k = SimplicialComplex.from_labels(["a", "b", "c"], [["a", "b"], ["c"]])
        with pytest.raises(InputError, match="isolated"):
            complex_to_set_system(k)

    def test_torus_roundtrip_and_tau(self, torus):
        s = complex_to_set_system(torus)
        assert same_complex(nerve(s), torus)
        tau, cert, exact = comatching_number(s)
        assert (tau, exact) == (2, True)
        assert verify_comatching(s, cert).ok

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_isomorphism_and_tau_bound_on_random_complexes(self, seed):
        rng = random.Random(seed + 200)
        k = random_complex(rng, 6, 5)
        while k.isolated_vertices():
            k = random_complex(rng, 6, 5)
        s = complex_to_set_system(k)
        assert same_complex(nerve(s), k)
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
    def test_join_associative_up_to_prefix_renaming(self, seed):
        # Both bracketings put a, b and c side by side in that order; only
        # the prefixes of the labels differ.
        rng = random.Random(seed + 500)
        a = random_complex(rng, 3, 2)
        b = random_complex(rng, 3, 2)
        c = random_complex(rng, 3, 2)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        rename = (
            {"l:l:" + v: "l:" + v for v in a.vertices}
            | {"l:r:" + v: "r:l:" + v for v in b.vertices}
            | {"r:" + v: "r:r:" + v for v in c.vertices}
        )
        renamed = SimplicialComplex(tuple(rename[v] for v in left.vertices), left.facets)
        assert same_complex(renamed, right)


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
