import random
from itertools import combinations

import pytest

from comatch.core import InputError
from comatch.constructions import gen_torus_grid_complex
from comatch.jsonio import profile_to_doc
from comatch.linalg import rank_exact
from comatch.randsys import random_complex
from comatch.search import SearchBudget
from comatch.simplicial import SimplicialComplex, faces_of_dim, join
from comatch.topology import (
    CollapseSequence,
    KunnethVerdict,
    LerayVerdict,
    _betti_from,
    is_d_collapsible,
    join_profile_from_factors,
    kunneth_betti_check,
    leray_check,
    leray_number,
    reduced_betti,
    replay_collapse_sequence,
)

from oracles import boundary_matrix, is_d_good


@pytest.fixture
def three_cycle():
    return SimplicialComplex.from_labels(
        ["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]
    )


@pytest.fixture
def torus():
    return gen_torus_grid_complex(4, 2)


def full_simplex(n):
    labels = [f"v{i}" for i in range(n)]
    return SimplicialComplex.from_labels(labels, [labels])


def _matmul(a, b):
    if not a or not b or not b[0]:
        return []
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestBoundaryMatrix:
    def test_three_cycle_edge_boundary(self, three_cycle):
        m = boundary_matrix(three_cycle, 1)
        assert len(m) == 3 and len(m[0]) == 3
        rows = [{j: v for j, v in enumerate(r) if v} for r in m]
        assert rank_exact(rows) == 2

    def test_column_sign_structure(self, three_cycle):
        m = boundary_matrix(three_cycle, 1)
        for col in range(3):
            entries = sorted(m[row][col] for row in range(3) if m[row][col])
            assert entries == [-1, 1]

    def test_augmentation_row(self, three_cycle):
        m = boundary_matrix(three_cycle, 0)
        assert m == [[1, 1, 1]]

    @pytest.mark.parametrize("seed", range(20))
    def test_boundary_of_boundary_vanishes(self, seed):
        k = random_complex(random.Random(seed + 700), 6, 5)
        for i in range(0, k.dim + 1):
            product = _matmul(boundary_matrix(k, i), boundary_matrix(k, i + 1))
            assert all(v == 0 for row in product for v in row)

    def test_out_of_range_dimension(self, three_cycle):
        with pytest.raises(InputError):
            boundary_matrix(three_cycle, 4)


class TestReducedBetti:
    def test_full_simplex_all_zero(self):
        assert reduced_betti(full_simplex(4)).reduced_betti == (0, 0, 0, 0)

    def test_torus_profile(self, torus):
        profile = reduced_betti(torus)
        assert profile.reduced_betti == (0, 2, 1, 0)
        assert profile_to_doc(profile) == {
            "reduced_betti": [0, 2, 1, 0],
            "exact": True,
        }

    def test_three_cycle_join_three_cycle(self, three_cycle):
        j = join(three_cycle, three_cycle)
        assert reduced_betti(j).reduced_betti == (0, 0, 0, 1)

    def test_empty_complex_flagged(self):
        empty = SimplicialComplex((), ())
        profile = reduced_betti(empty)
        assert profile.reduced_betti == ()
        assert "empty complex" in profile.notes

    def test_two_points(self):
        k = SimplicialComplex.from_labels(["a", "b"], [["a"], ["b"]])
        assert reduced_betti(k).reduced_betti == (1,)

    @pytest.mark.parametrize("seed", range(25))
    def test_reduced_euler_characteristic(self, seed):
        k = random_complex(random.Random(seed + 900), 6, 5)
        profile = reduced_betti(k).reduced_betti
        betti_sum = sum((-1) ** i * b for i, b in enumerate(profile))
        face_sum = sum(
            (-1) ** i * len(faces_of_dim(k, i)) for i in range(k.dim + 1)
        )
        assert betti_sum == face_sum - 1

    def test_budget_exhaustion_returns_none(self, torus):
        budget = SearchBudget(max_nodes=2)
        assert reduced_betti(torus, budget=budget) is None
        assert budget.exhausted

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_fraction_oracle(self, seed):
        from oracles import oracle_reduced_betti

        k = random_complex(random.Random(seed + 1600), 6, 5)
        assert reduced_betti(k).reduced_betti == oracle_reduced_betti(k)


def _pinned_complexes():
    from comatch.constructions import gen_cycle_sharpness, gen_hamming_system
    from comatch.simplicial import nerve

    return {
        "torus": gen_torus_grid_complex(4, 2),
        "hamming41-nerve": nerve(gen_hamming_system(4, 1)),
        "cycle5-nerve": nerve(gen_cycle_sharpness(5)),
    }


def _betti_from_cases():
    rng = random.Random(19)
    named = list(_pinned_complexes().items()) + [
        (f"random{i}", random_complex(rng, 8, 7)) for i in range(30)
    ]
    return [pytest.param(k, id=name) for name, k in named]


class TestBettiFrom:
    """``_betti_from(K, low)`` enumerates the faces of dimension low - 1 and
    up, and ranks only the boundaries from dimension low up."""

    @pytest.mark.parametrize("k", _betti_from_cases())
    def test_equals_reduced_betti_with_zeros_below_low(self, k):
        full = reduced_betti(k).reduced_betti
        ranks = [
            rank_exact(
                [{c: x for c, x in enumerate(row) if x} for row in boundary_matrix(k, i)]
            )
            for i in range(k.dim + 1)
        ]
        for low in range(k.dim + 2):
            budget = SearchBudget()
            betti = _betti_from(k, low, budget)
            assert betti == tuple(b if i >= low else 0 for i, b in enumerate(full))
            # One node per pivot: the ranks of the boundaries from low up.
            assert budget.nodes == sum(ranks[low:])


class TestGoodness:
    def test_torus_is_2_good(self, torus):
        assert is_d_good(torus, 2)
        assert not is_d_good(torus, 3)

    def test_full_simplex_never_good(self):
        k = full_simplex(3)
        assert not any(is_d_good(k, d) for d in range(4))


class TestKunneth:
    def test_cone_sides_vanish(self, three_cycle):
        apex = SimplicialComplex.from_labels(["p"], [["p"]])
        verdict = kunneth_betti_check(three_cycle, apex)
        assert verdict.status == "ok"
        assert all(b == 0 for b in verdict.direct)

    def test_three_cycle_square(self, three_cycle):
        verdict = kunneth_betti_check(three_cycle, three_cycle)
        assert verdict.status == "ok"
        assert verdict.direct[3] == 1

    def test_profile_convolution(self):
        assert join_profile_from_factors((0, 2, 1, 0), (0, 2, 1, 0)) == (
            0,
            0,
            0,
            4,
            4,
            1,
            0,
            0,
            0,
        )
        # The join with the empty complex, whose profile is (), is the other
        # factor; the trailing entry is the same padding as above.
        assert join_profile_from_factors((), (0, 2, 1, 0)) == (0, 2, 1, 0, 0)
        assert join_profile_from_factors((0, 2, 1, 0), ()) == (0, 2, 1, 0, 0)
        assert join_profile_from_factors((), ()) == (0,)

    @pytest.mark.parametrize("seed", range(20))
    def test_identity_on_random_pairs(self, seed):
        rng = random.Random(seed + 1100)
        a = random_complex(rng, 5, 4)
        b = random_complex(rng, 5, 4)
        verdict = kunneth_betti_check(a, b)
        assert verdict.status == "ok", verdict.violations

    def test_empty_factor_degenerates_to_other_side(self, three_cycle):
        empty = SimplicialComplex((), ())
        verdict = kunneth_betti_check(three_cycle, empty)
        assert verdict.status == "ok"
        assert verdict.direct == (0, 1)
        assert kunneth_betti_check(empty, empty).status == "ok"

    def test_budget_exhaustion_in_band(self, torus):
        # One budget covers both sides: the two torus factors spend 158 nodes,
        # so 200 leaves the join's homology short.
        verdict = kunneth_betti_check(torus, torus, SearchBudget(max_nodes=200))
        assert verdict.status == "budget_exhausted"
        assert verdict.direct is None
        assert verdict.predicted[5] == 1

    def test_factor_budget_exhaustion_in_band(self, torus, three_cycle):
        verdict = kunneth_betti_check(torus, three_cycle, SearchBudget(max_nodes=5))
        assert verdict == KunnethVerdict("budget_exhausted", (), None)


class TestBudgetInBand:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_nodes", [0, 1, 2, 5, 20])
    def test_exhaustion_never_raises(self, seed, max_nodes):
        from comatch.simplicial import complex_comatching_number

        rng = random.Random(seed + 2100)
        k = random_complex(rng, 6, 5)
        other = random_complex(rng, 4, 3)

        budget = SearchBudget(max_nodes=max_nodes)
        profile = reduced_betti(k, budget)
        assert (profile is None) == budget.exhausted
        if profile is not None:
            assert profile == reduced_betti(k)

        verdict = kunneth_betti_check(k, other, SearchBudget(max_nodes=max_nodes))
        assert verdict.status in ("ok", "budget_exhausted")
        for d in range(k.dim + 2):
            assert leray_check(k, d, SearchBudget(max_nodes=max_nodes)).status in (
                "holds",
                "fails",
                "budget_exhausted",
            )
        value, exact, witness = leray_number(k, SearchBudget(max_nodes=max_nodes))
        if exact:
            assert (value, exact, witness) == leray_number(k)
        for d in range(1, k.dim + 2):
            status, _ = is_d_collapsible(k, d, SearchBudget(max_nodes=max_nodes))
            assert status in ("proved", "refuted", "budget_exhausted")
        tau, _, _ = complex_comatching_number(k, SearchBudget(max_nodes=max_nodes))
        assert tau <= complex_comatching_number(k)[0]


def _named_nerves():
    from comatch.constructions import gen_cycle_sharpness, gen_hamming_system
    from comatch.simplicial import nerve

    named = [
        (f"cycle{m}-nerve", nerve(gen_cycle_sharpness(m)), [5] if m == 5 else [])
        for m in (3, 4, 5)
    ]
    named.append(("hamming41-nerve", nerve(gen_hamming_system(4, 1)), []))
    return [pytest.param(k, undecided, id=name) for name, k, undecided in named]


class TestCollapsibility:
    def test_full_simplex_collapses_at_one(self):
        status, seq = is_d_collapsible(full_simplex(5), 1)
        assert status == "proved"
        assert replay_collapse_sequence(full_simplex(5), seq).ok

    def test_three_cycle_refuted_at_one(self, three_cycle):
        status, seq = is_d_collapsible(three_cycle, 1)
        assert (status, seq) == ("refuted", None)

    def test_three_cycle_proved_at_two(self, three_cycle):
        status, seq = is_d_collapsible(three_cycle, 2)
        assert status == "proved"
        assert replay_collapse_sequence(three_cycle, seq).ok

    def test_exhausted_search_stops_stepping(self, torus, monkeypatch):
        # Each collapse step is followed by one spend, so a search that runs
        # out of budget takes at most max_nodes + 1 steps.
        import comatch.topology as topology

        steps = []
        real_step = topology._FaceCounts.collapse

        def counted_step(*args):
            steps.append(args)
            return real_step(*args)

        monkeypatch.setattr(topology._FaceCounts, "collapse", counted_step)
        status, _ = is_d_collapsible(torus, 2, SearchBudget(max_nodes=50))
        assert status == "budget_exhausted"
        assert len(steps) <= 51

    def test_torus_not_twocollapsible_or_budget(self, torus):
        status, _ = is_d_collapsible(torus, 2, SearchBudget(max_nodes=30_000))
        assert status in ("refuted", "budget_exhausted")

    def test_replay_rejects_tampered_sequence(self, three_cycle):
        status, seq = is_d_collapsible(three_cycle, 2)
        assert status == "proved"
        first_face, first_coface = seq.steps[0]
        tampered = CollapseSequence(
            seq.d, ((first_face, frozenset({0, 1, 2})),) + seq.steps[1:]
        )
        assert not replay_collapse_sequence(three_cycle, tampered).ok

    def test_replay_rejects_incomplete_sequence(self, three_cycle):
        status, seq = is_d_collapsible(three_cycle, 2)
        truncated = CollapseSequence(seq.d, seq.steps[:1])
        assert not replay_collapse_sequence(three_cycle, truncated).ok

    @pytest.mark.parametrize("seed", range(40))
    def test_search_equals_lex_first_oracle(self, seed):
        k = random_complex(random.Random(seed + 3300), 6, 5)
        assert _check_against_oracles(k) == []

    @pytest.mark.parametrize("k, undecided", _named_nerves())
    def test_search_equals_lex_first_oracle_on_nerves(self, k, undecided):
        # The nerve of M=5 is not 5-collapsible (its Leray number is 6), and
        # refuting that takes more than 20,000 nodes.
        assert _check_against_oracles(k, 20_000) == undecided

    def test_memo_expands_each_complex_once(self):
        # A hollow triangle with a pendant edge at each corner: the three
        # pendant collapses commute, so the 8 complexes they pass through
        # are reached 13 times (the start, then one per edge of the cube of
        # orders), and none is expanded twice.
        from oracles import oracle_lex_first_collapse

        k = SimplicialComplex.from_labels(
            ["a", "b", "c", "x", "y", "z"],
            [["a", "b"], ["b", "c"], ["c", "a"], ["a", "x"], ["b", "y"], ["c", "z"]],
        )
        budget = SearchBudget()
        assert is_d_collapsible(k, 1, budget) == ("refuted", None)
        assert budget.nodes == 13 == oracle_lex_first_collapse(k, 1)[2]

    def test_deep_path_needs_no_recursion(self):
        # One step per edge and one for the last vertex: a sequence longer
        # than the recursion limit.
        import sys

        n = sys.getrecursionlimit() + 100
        path = SimplicialComplex(
            tuple(f"v{i}" for i in range(n)),
            tuple(frozenset({i, i + 1}) for i in range(n - 1)),
        )
        status, seq = is_d_collapsible(path, 1)
        assert status == "proved" and len(seq.steps) == n
        assert replay_collapse_sequence(path, seq).ok

    @pytest.mark.parametrize("seed", range(30))
    def test_replay_agrees_with_oracle(self, seed):
        # Random walks over free pairs of any cardinality, with an
        # occasional pair that need not be free, stopped at a random length.
        from oracles import naive_collapse, naive_free_pairs, oracle_collapse_replays

        rng = random.Random(seed + 3700)
        k = random_complex(rng, 6, 5)
        facets, steps = frozenset(k.facets), []
        while facets and rng.random() < 0.9:
            pairs = naive_free_pairs(facets, k.dim + 1)
            if rng.random() < 0.15 or not pairs:
                coface = sorted(rng.choice(sorted(facets, key=sorted)))
                face = frozenset(rng.sample(coface, rng.randint(1, len(coface))))
                coface = frozenset(coface)
            else:
                face, coface = rng.choice(pairs)
            steps.append((face, coface))
            facets = naive_collapse(facets, face)
        for d in range(1, k.dim + 2):
            seq = CollapseSequence(d, tuple(steps))
            assert replay_collapse_sequence(k, seq).ok == oracle_collapse_replays(
                k, d, steps
            )

    @pytest.mark.parametrize("seed", range(15))
    def test_proved_sequences_always_replay(self, seed):
        k = random_complex(random.Random(seed + 1200), 5, 4)
        for d in (1, 2, 3):
            status, seq = is_d_collapsible(k, d, SearchBudget(max_nodes=20_000))
            if status == "proved":
                assert replay_collapse_sequence(k, seq).ok


def _check_against_oracles(k, max_nodes=None):
    """At every d, the search returns the oracle's status, its exact
    sequence (the lexicographically least, comparing steps by face) and its
    node count; and its status is the one of the rule that collapses only
    free faces of exactly d vertices, which decides the same property.
    Returns the d at which the search ran out of ``max_nodes``, where the
    oracles are not run."""
    from oracles import oracle_lex_first_collapse

    undecided = []
    for d in range(1, k.dim + 2):
        budget = SearchBudget(max_nodes)
        found = is_d_collapsible(k, d, budget)
        if found[0] == "budget_exhausted":
            undecided.append(d)
            continue
        status, steps, nodes = oracle_lex_first_collapse(k, d)
        expected = None if steps is None else CollapseSequence(d, steps)
        assert found == (status, expected)
        assert budget.nodes == nodes
        assert status == oracle_lex_first_collapse(k, d, strict_size=True)[0], d
    return undecided


def _sparse_complex(rng, n):
    """n vertices, a few random facets of 2 to 4 of them, the rest isolated."""
    labels = [f"v{i}" for i in range(n)]
    facets = [rng.sample(labels, rng.randint(2, 4)) for _ in range(rng.randint(3, 14))]
    covered = {v for f in facets for v in f}
    return SimplicialComplex.from_labels(
        labels, facets + [[v] for v in labels if v not in covered]
    )


def _assert_witness_replays(k, witness, value):
    from comatch.simplicial import induced_subcomplex

    vertices, dim = witness.witness
    assert witness.status == "fails" and witness.d == dim == value - 1
    profile = reduced_betti(induced_subcomplex(k, vertices)).reduced_betti
    assert profile[dim] != 0


class TestLeray:
    def test_full_simplex_holds_everywhere(self):
        assert leray_check(full_simplex(4), 1).status == "holds"
        assert leray_number(full_simplex(4)) == (0, True, None)

    def test_three_cycle(self, three_cycle):
        assert leray_check(three_cycle, 2).status == "holds"
        verdict = leray_check(three_cycle, 1)
        assert verdict.status == "fails"
        vertices, dim = verdict.witness
        assert (len(vertices), dim) == (3, 1)
        assert leray_number(three_cycle) == (2, True, verdict)

    def test_torus_fails_at_two_with_full_witness(self, torus):
        verdict = leray_check(torus, 2)
        assert verdict.status == "fails"
        vertices, dim = verdict.witness
        assert len(vertices) == 16 and dim == 2

    def test_budget_exhaustion(self, torus):
        verdict = leray_check(torus, 3, SearchBudget(max_nodes=10))
        assert verdict.status == "budget_exhausted"

    @pytest.mark.parametrize("seed", range(12))
    def test_collapsible_implies_leray(self, seed):
        k = random_complex(random.Random(seed + 1300), 5, 4)
        for d in (1, 2):
            status, _ = is_d_collapsible(k, d, SearchBudget(max_nodes=20_000))
            if status == "proved":
                assert leray_check(k, d).status == "holds"

    @pytest.mark.parametrize("seed", range(20))
    def test_scanner_agrees_with_direct_subcomplex_homology(self, seed):
        from oracles import oracle_max_nonzero_betti_over_subcomplexes

        k = random_complex(random.Random(seed + 1700), 5, 4)
        worst = oracle_max_nonzero_betti_over_subcomplexes(k)
        for d in (0, 1, 2, 3):
            expected = "holds" if worst < d else "fails"
            assert leray_check(k, d).status == expected
        value, exact, witness = leray_number(k)
        assert (value, exact) == (worst + 1, True)
        if value == 0:
            assert witness is None
        else:
            assert witness == leray_check(k, value - 1)
            _assert_witness_replays(k, witness, value)
        # Under a node budget the value is a lower bound that its witness
        # still certifies.
        for max_nodes in (1, 3, 8, 20):
            value, exact, witness = leray_number(k, SearchBudget(max_nodes=max_nodes))
            assert value <= worst + 1
            if exact:
                assert value == worst + 1
            if value == 0:
                assert witness is None
            else:
                _assert_witness_replays(k, witness, value)

    @pytest.mark.parametrize("seed", range(60))
    def test_link_criterion_agrees_with_subcomplex_oracle(self, seed):
        from oracles import oracle_max_nonzero_betti_over_subcomplexes
        from comatch.simplicial import induced_subcomplex

        k = random_complex(random.Random(seed + 2100), 9, 3)
        worst = oracle_max_nonzero_betti_over_subcomplexes(k)
        for d in range(k.dim + 2):
            verdict = leray_check(k, d)
            assert verdict.status == ("holds" if worst < d else "fails")
            if verdict.status == "fails":
                vertices, dim = verdict.witness
                profile = reduced_betti(induced_subcomplex(k, vertices)).reduced_betti
                assert dim >= d and profile[dim] != 0
        value, exact, witness = leray_number(k)
        assert (value, exact) == (worst + 1, True)
        if value == 0:
            assert witness is None
        else:
            assert witness == leray_check(k, value - 1)
            _assert_witness_replays(k, witness, value)

    def test_torus_and_hamming_nerve_have_leray_number_three(self, torus):
        from comatch.constructions import gen_hamming_system
        from comatch.simplicial import nerve

        for k in (torus, nerve(gen_hamming_system(4, 1))):
            assert leray_number(k) == (3, True, leray_check(k, 2))

    def test_witness_sampled_above_the_cap(self):
        # A cone is acyclic, so the whole complex is no witness, while its
        # base (a 3-cycle plus 22 isolated points) is one.  With 26 vertices
        # and no budget, the witness descends from the apex's failing link.
        points = [f"p{i}" for i in range(22)]
        base = [["x", "y"], ["y", "z"], ["z", "x"]] + [[p] for p in points]
        cone = SimplicialComplex.from_labels(
            ["a", "x", "y", "z"] + points, [["a"] + f for f in base]
        )
        assert leray_check(cone, 2).status == "holds"
        value, exact, witness = leray_number(cone)
        assert (value, exact) == (2, True)
        _assert_witness_replays(cone, witness, value)
        assert {1, 2, 3} <= witness.witness[0] and 0 not in witness.witness[0]
        assert leray_check(cone, 1) == witness
        budgeted = leray_number(cone, SearchBudget(max_nodes=100_000))
        assert budgeted == (value, exact, witness)

    @pytest.mark.parametrize("seed", range(24))
    def test_cone_keeps_leray_number_of_base(self, seed):
        # Induced subcomplexes of a cone a * B are those of B and cones,
        # which are acyclic, so L(a * B) = L(B); a * B is acyclic itself, so
        # every witness descends from a link.  Seed 0 has 26 base vertices.
        rng = random.Random(seed + 2600)
        base = _sparse_complex(rng, 26 if seed == 0 else rng.randint(4, 11))
        cone = join(SimplicialComplex(("a",), (frozenset({0}),)), base)
        value, exact, witness = leray_number(cone)
        assert (value, exact) == leray_number(base)[:2] and exact
        if value:
            assert 0 not in witness.witness[0]
            _assert_witness_replays(cone, witness, value)
            assert witness == leray_check(cone, value - 1)

    @pytest.mark.parametrize("seed", range(15))
    def test_collapse_search_agrees_with_bfs_oracle(self, seed):
        from oracles import oracle_bfs_collapsible

        k = random_complex(random.Random(seed + 1800), 5, 4)
        for d in (1, 2):
            status, seq = is_d_collapsible(k, d)
            assert status in ("proved", "refuted")
            assert oracle_bfs_collapsible(k, d) == (status == "proved")
            if seq is not None:
                assert replay_collapse_sequence(k, seq).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_leray_witness_reproducible_by_direct_homology(self, seed):
        from comatch.simplicial import induced_subcomplex

        k = random_complex(random.Random(seed + 1400), 6, 5)
        for d in (1, 2):
            verdict = leray_check(k, d)
            if verdict.status == "fails":
                vertices, dim = verdict.witness
                sub = induced_subcomplex(k, vertices)
                profile = reduced_betti(sub).reduced_betti
                assert dim >= d and profile[dim] != 0


    @pytest.mark.parametrize(
        "name, value, nodes",
        [("torus", 3, 80), ("hamming41-nerve", 3, 258), ("cycle5-nerve", 6, 541)],
    )
    def test_leray_number_pinned_without_betti(self, name, value, nodes):
        # Each of these complexes has homology at value - 1 itself, so the
        # witness is the whole vertex set.
        k = _pinned_complexes()[name]
        budget = SearchBudget()
        witness = LerayVerdict(
            value - 1, "fails", (frozenset(range(k.num_vertices)), value - 1)
        )
        assert leray_number(k, budget) == (value, True, witness)
        assert budget.nodes == nodes

    def test_descend_raises_the_dimension(self):
        # On the boundary of the 3-simplex lk a is a circle (H_1 != 0), and
        # K itself has H_2 != 0, so the descent from sigma = {a} at i = 1
        # raises i to 2 and keeps every vertex.
        from comatch.cli import _check
        from comatch.topology import _descend, _link

        k = SimplicialComplex.from_labels("abcd", combinations("abcd", 3))
        assert reduced_betti(_link(k, frozenset({0}))).reduced_betti == (0, 1)
        budget = SearchBudget()
        witness = _descend(k, frozenset({0}), 1, budget)
        assert witness == (frozenset(range(4)), 2)
        # One node for the link, three pivots for the rank of the boundary
        # of the four triangles.
        assert budget.nodes == 4
        assert _check(LerayVerdict(1, "fails", witness), complex_=k).ok


def _known_betti_cases():
    from comatch.constructions import gen_hamming_system
    from comatch.simplicial import nerve

    rng = random.Random(18)
    named = [
        ("torus", gen_torus_grid_complex(4, 2)),
        ("hamming41-nerve", nerve(gen_hamming_system(4, 1))),
        ("empty", SimplicialComplex((), ())),
        ("simplex", full_simplex(4)),
    ] + [(f"random{i}", random_complex(rng, 8, 7)) for i in range(40)]
    return [pytest.param(k, id=name) for name, k in named]


class TestLerayFromKnownBetti:
    """``leray_number(K, budget, betti)`` takes K's exact Betti numbers for
    lk {} = K instead of computing them."""

    @pytest.mark.parametrize("k", _known_betti_cases())
    def test_same_answer_as_computing_them(self, k):
        betti = reduced_betti(k).reduced_betti
        assert leray_number(k, None, betti) == leray_number(k)

    @pytest.mark.parametrize("k", _known_betti_cases())
    def test_never_below_the_bound_they_prove(self, k):
        from comatch.cli import _check

        betti = reduced_betti(k).reduced_betti
        floor = 1 + max((i for i, b in enumerate(betti) if b), default=-1)
        full = SearchBudget()
        leray_number(k, full, betti)
        for max_nodes in range(full.nodes + 1):
            budget = SearchBudget(max_nodes=max_nodes)
            value, exact, witness = leray_number(k, budget, betti)
            assert value >= floor
            assert exact == (max_nodes == full.nodes)
            if witness is not None:
                assert _check(witness, complex_=k).ok
                _assert_witness_replays(k, witness, value)


class TestDoubleTorusJoin:
    def test_five_good_but_not_five_leray(self):
        from comatch.constructions import gen_good_join_complex
        from comatch.simplicial import complex_comatching_number
        from comatch.search import SearchBudget

        double = gen_good_join_complex(2)
        tau, cert, exact = complex_comatching_number(
            double, SearchBudget(max_millis=120_000)
        )
        assert tau <= 4 if not exact else tau == 4

        torus_profile = reduced_betti(gen_torus_grid_complex(4, 2)).reduced_betti
        predicted = join_profile_from_factors(torus_profile, torus_profile)
        assert predicted[5] == 1 and all(b == 0 for b in predicted[6:])

        # The complex itself has homology in dimension 5, so the first
        # failing link is the empty face's and the witness is all 32 vertices.
        verdict = leray_check(double, 5, SearchBudget(max_millis=120_000))
        assert verdict.status == "fails"
        vertices, dim = verdict.witness
        assert dim == 5 and len(vertices) == 32

    def test_sampled_scan_needs_a_limit(self):
        # The links prove "holds" at any vertex count, and the whole complex
        # (homology in dimensions 3, 4 and 5) is its own witness, so no
        # descent runs; the cone tests in TestLeray cover witnesses that
        # descend from a proper link, with no budget.
        from comatch.constructions import gen_good_join_complex

        double = gen_good_join_complex(2)
        value, exact, witness = leray_number(double, SearchBudget(max_millis=60_000))
        assert (value, exact) == (6, True)
        assert len(witness.witness[0]) == 32
        _assert_witness_replays(double, witness, value)
        assert leray_check(double, 6, SearchBudget(max_millis=60_000)).status == "holds"
        assert leray_check(double, 6).status == "holds"
        assert leray_check(double, 8).status == "holds"

        # A node limit stops the link pass deterministically: inside the
        # whole complex's homology (12,957 nodes) at 1,000, inside the 32
        # vertex links (65 nodes each) at 14,000, where the whole complex
        # already certifies the lower bound.
        verdict = leray_check(double, 6, SearchBudget(max_nodes=1_000))
        assert verdict.status == "budget_exhausted"
        value, exact, witness = leray_number(double, SearchBudget(max_nodes=14_000))
        assert (value, exact) == (6, False)
        assert witness.status == "fails" and witness.witness[1] == 5
        # Given the whole complex's Betti numbers, 1,000 nodes already
        # certify the same lower bound.
        betti = reduced_betti(double).reduced_betti
        budget = SearchBudget(max_nodes=1_000)
        assert leray_number(double, budget, betti) == (value, exact, witness)


class TestRankKernels:
    @pytest.mark.parametrize("seed", range(20))
    def test_exact_rank_equals_dense_fraction_oracle(self, seed):
        # Entries in [-7, 7] make non-unit pivots common, so the row scaling
        # and the gcd reduction run; some rows are empty.
        from oracles import dense_rank_fraction

        rng = random.Random(seed + 1500)
        for _ in range(25):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            matrix = [
                [rng.randint(-7, 7) if rng.random() < 0.7 else 0 for _ in range(n_cols)]
                if rng.random() < 0.85
                else [0] * n_cols
                for _ in range(n_rows)
            ]
            rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
            assert rank_exact(rows) == dense_rank_fraction(matrix)

    def test_projective_plane_has_torsion_at_two(self):
        # The 6-vertex real projective plane: H1 = Z/2 is all torsion, so
        # over the rationals every reduced Betti number is 0.
        rp2 = SimplicialComplex.from_labels(
            range(6),
            [
                [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
                [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
            ],
        )
        assert _betti_from(rp2, 0, SearchBudget()) == (0, 0, 0)

    def test_rank_with_non_unit_pivots(self):
        rows = [{0: 2, 1: 4}, {0: 4, 1: 8}, {0: 2, 1: 5}]
        assert rank_exact(rows) == 2
