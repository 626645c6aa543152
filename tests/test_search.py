import gc
import hashlib
import json
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from comatch import cli, jsonio
from comatch.core import (
    SetSystem,
    InputError,
    intersect_subfamily,
    intersection_mask,
    verify_comatching,
    verify_comatching_with_intersection,
)
from comatch.constructions import gen_cycle_sharpness, gen_hamming_system
from comatch.randsys import random_refutable_instance, random_system
from comatch.search import (
    ColorfulInstance,
    SearchBudget,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    fractional_helly_profile,
    helly_number,
    instance_admits_empty_transversal,
    minimal_empty_subfamilies,
)
from comatch import search
from comatch.search import (
    CompatibilityGraph,
    _value_pass,
    _colour_classes,
    _completions,
    _exposable_members,
    _meets,
    _SubsetLattice,
)

from oracles import (
    complement_incidence,
    oracle_colorful_helly_number,
    oracle_comatching_number,
    oracle_eta_level_search,
    oracle_comatching_with_intersection_number,
    oracle_first_fit_class_tops,
    oracle_helly_number,
    oracle_instance_admits_empty_transversal,
    oracle_lex_first_comatching,
    oracle_minimal_empty_subfamilies,
    oracle_pairs_compatible,
)


@pytest.fixture
def sharp2():
    return gen_cycle_sharpness(2)


def assert_refutes(system, refuting, eta):
    """A refuting instance of size eta - 1 (None when eta = 1) admits no
    empty colorful transversal."""
    if eta == 1:
        assert refuting is None
        return
    assert len(refuting) == eta - 1
    assert not instance_admits_empty_transversal(system, refuting)


def density_system(seed):
    """4-8 points, 4-10 members, each point in a member with one random
    probability; denser than random_system, so eta > h shows up."""
    rng = random.Random(seed)
    n, m, density = rng.randint(4, 8), rng.randint(4, 10), rng.uniform(0.4, 0.9)
    members = [
        (f"m{j}", [p for p in range(n) if rng.random() < density]) for j in range(m)
    ]
    return SetSystem.build([str(p) for p in range(n)], members)


def join_system(k):
    """Cycle-sharpness M=2 (A={1,2}, B={3,4}, C={2,3}, D={4,1}) joined with
    X - {x_i} on k points: A..D also take x1..xk, and y_i is {1,2,3,4} plus
    every x but x_i.  Its two minimal empty subfamilies have k + 2 members,
    and tau' = k + 2 = h, so eta is left to the level search."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    cycle = [("A", ["1", "2"]), ("B", ["3", "4"]), ("C", ["2", "3"]), ("D", ["4", "1"])]
    members = [(name, pts + xs) for name, pts in cycle]
    members += [(f"y{i}", ["1", "2", "3", "4"] + xs[: i - 1] + xs[i:]) for i in range(1, k + 1)]
    return SetSystem.from_labels(["1", "2", "3", "4"] + xs, members)


def seed7_system():
    """80 random 3-sets of 20 points: 3,466 minimal empty subfamilies, 1,920
    of size 2 and 1,546 of size 3, and tau' = 3 = h."""
    rng = random.Random(7)
    ground = [str(i) for i in range(20)]
    return SetSystem.from_labels(
        ground, [(f"m{k}", rng.sample(ground, 3)) for k in range(80)]
    )


def shared_point_system():
    return SetSystem.build(
        ["a", "b", "c"], [("F", [0, 1]), ("G", [0, 2]), ("H", [0])]
    )


class TestSearchBudget:
    def test_negative_limits_rejected(self):
        with pytest.raises(InputError):
            SearchBudget(max_nodes=-1)
        with pytest.raises(InputError):
            SearchBudget(max_millis=-5)

    def test_node_budget_counts(self):
        budget = SearchBudget(max_nodes=3)
        assert [budget.spend() for _ in range(5)] == [True, True, True, False, False]
        assert budget.exhausted

    def test_batched_spend_leaves_the_state_of_single_spends(self):
        budget = SearchBudget(max_nodes=5)
        assert budget.spend(10) is False
        assert (budget.nodes, budget.exhausted) == (6, True)
        budget = SearchBudget(max_nodes=10)
        assert [budget.spend(3) for _ in range(4)] == [True, True, True, False]
        assert budget.nodes == 11
        assert budget.spend(3) is False and budget.nodes == 11
        unbounded = SearchBudget()
        assert unbounded.spend(10**30) and unbounded.nodes == 10**30

    def test_deadline_checked_on_first_spend(self):
        budget = SearchBudget(max_millis=0)
        while time.monotonic() <= budget.deadline:
            pass
        assert budget.spend() is False
        assert budget.exhausted and budget.nodes == 1


class TestComatchingNumber:
    def test_sharpness_m2(self, sharp2):
        tau, cert, exact = comatching_number(sharp2)
        assert (tau, exact) == (2, True)
        assert verify_comatching(sharp2, cert).ok

    def test_single_full_member(self):
        s = SetSystem.build(["a", "b"], [("F", [0, 1])])
        tau, cert, exact = comatching_number(s)
        assert (tau, len(cert), exact) == (0, 0, True)

    def test_sharpness_m3_true_value_with_oracle(self):
        # The no-three-consecutive bound gives floor(4M/3) = 4 here, not M.
        s = gen_cycle_sharpness(3)
        tau, cert, exact = comatching_number(s)
        assert exact and verify_comatching(s, cert).ok
        oracle_tau, _ = oracle_comatching_number(s)
        assert tau == oracle_tau == 4

    def test_budget_exhaustion_reports_lower_bound(self):
        s = gen_cycle_sharpness(4)
        tau, cert, exact = comatching_number(s, SearchBudget(max_nodes=3))
        assert not exact
        assert verify_comatching(s, cert).ok
        assert tau <= 5

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle_on_random_systems(self, seed):
        system = random_system(random.Random(seed), 5, 5)
        tau, cert, exact = comatching_number(system)
        assert exact
        assert verify_comatching(system, cert).ok
        assert tau == oracle_comatching_number(system)[0]


class TestComatchingWithIntersectionNumber:
    def test_sharpness_m2(self, sharp2):
        taup, cert, exact = comatching_with_intersection_number(sharp2)
        assert (taup, exact) == (2, True)
        assert verify_comatching_with_intersection(sharp2, cert).ok

    def test_all_members_equal_ground(self):
        s = SetSystem.build(["a", "b"], [("F", [0, 1]), ("G", [0, 1])])
        taup, cert, exact = comatching_with_intersection_number(s)
        assert (taup, cert, exact) == (0, None, True)

    def test_hamming_4_1_2(self):
        taup, cert, exact = comatching_with_intersection_number(
            gen_hamming_system(4, 1, 2)
        )
        assert (taup, exact) == (3, True)

    @pytest.mark.parametrize("seed", range(30))
    def test_oracle_and_tau_relation(self, seed):
        system = random_system(random.Random(seed + 1000), 5, 5)
        tau, _, e1 = comatching_number(system)
        taup, cert, e2 = comatching_with_intersection_number(system)
        assert e1 and e2
        assert taup == oracle_comatching_with_intersection_number(system)[0]
        assert taup in (tau - 1, tau)
        if cert is not None:
            assert verify_comatching_with_intersection(system, cert).ok


class TestLexFirstCertificates:
    """The certificates are the lexicographically first optimum, not just
    some optimum that verifies."""

    @pytest.mark.parametrize(
        "system",
        [random_system(random.Random(seed + 7000), 6, 6) for seed in range(40)]
        + [density_system(seed + 7100) for seed in range(20)],
    )
    def test_certificates_equal_oracle(self, system):
        tau, cert, exact = comatching_number(system)
        assert exact
        assert (tau, cert.pairs) == oracle_lex_first_comatching(system)[:2]
        taup, cert, exact = comatching_with_intersection_number(system)
        size, pairs, common = oracle_lex_first_comatching(system, common_point=True)
        assert exact and taup == size
        if size == 0:
            assert cert is None
        else:
            assert (cert.base.pairs, cert.common_point) == (pairs, common)


def certificate_corpus(name):
    """The systems of one corpus of the certificate digests."""
    if name == "random-2026":
        rng = random.Random(2026)
        return [
            random_system(rng, rng.randint(4, 9), rng.randint(4, 10))
            for _ in range(400)
        ]
    kind, *params = name.split("-")
    build = {"hamming": gen_hamming_system, "cs": gen_cycle_sharpness}[kind]
    return [build(*map(int, params))]


def certificate_records(systems):
    """tau and tau' of each system: value, pairs, common point, exact."""
    records = []
    for system in systems:
        tau, cert, exact = comatching_number(system)
        records.append((tau, cert.pairs, exact))
        taup, cert, exact = comatching_with_intersection_number(system)
        if cert is None:
            records.append((taup, None, None, exact))
        else:
            records.append((taup, cert.base.pairs, cert.common_point, exact))
    return records


class TestCertificateDigests:
    """SHA-256 of ``repr(certificate_records(corpus))``, taken before the
    certificate came from prefix decisions that start from the value
    pass's clique: any change to a value, a certificate or an exact flag
    on these corpora shows here."""

    # Hamming(n, 1) has the same certificates, as indices, for each n.
    REFERENCE_DIGESTS = [
        ("random-2026",
         "9a9ee69de88591c9d6b1622fd95de7e406696369744ce2e81c56b2ab0a44c873"),
        ("cs-3",
         "df92ea56d5d0d5844270a791d0add77ec3db45be2b86854b26696bdb3ec35dca"),
        ("cs-4",
         "18d3ceb12e6da32aeb394f5daa68cd27d2469b624f4bfe7e0343922c9b05bc7f"),
        ("cs-5",
         "2afcae1e2306aa3f13662fbdc278649463cfc72de68c669954d5ecbdaba084f1"),
        ("cs-6",
         "7184bc87e41afa4aaf300ec56cf1ef4cc7045268196777ee06a8be2bf30d5a00"),
        ("cs-7",
         "99030b06d49b8702f0437a633f2ee7da8cb1a50ffcdbe62041191ffe3162d0d9"),
        ("cs-8",
         "a81457d8010b7d99e85bba9f955d98422cffa5a6f58bff31519d87d39f7451cd"),
        ("cs-9",
         "5fafd8400d15a59227dc4a5c495813955cd350d525e5e4a8fa1b4c38c8aa7990"),
        ("cs-10",
         "28b15e96ebf3ee84af7dfbdb1fbc032cc606453b807df76e549919c3b7db1d08"),
        ("cs-11",
         "3635a1a36760f2af7550d90060cfa8b8ea75023f9b7496f7170da93566d8e0b9"),
        ("cs-12",
         "00be318fa6bf57914c61d9e87ba070c07843ba56cac9ff830d02f90117aa0ac5"),
        ("hamming-4-1",
         "475049d68f5051b095bc8dca6e543426b8c33b22b070a58cfe2d22d62213a5ca"),
        ("hamming-5-1",
         "475049d68f5051b095bc8dca6e543426b8c33b22b070a58cfe2d22d62213a5ca"),
        ("hamming-6-1",
         "475049d68f5051b095bc8dca6e543426b8c33b22b070a58cfe2d22d62213a5ca"),
    ]

    @pytest.mark.parametrize(
        "corpus, digest", REFERENCE_DIGESTS, ids=[c for c, _ in REFERENCE_DIGESTS]
    )
    def test_records_are_the_reference_records(self, corpus, digest):
        text = repr(certificate_records(certificate_corpus(corpus)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPinnedSearches:
    """Values, node counts and certificates (pairs as (point, member)
    indices, then the common point) of tau and tau' on systems where the
    colouring bound does most of the pruning."""

    H61_TAU = ((3, 0), (2, 1), (1, 2), (0, 3))
    M12_TAU = (
        (0, 0), (5, 2), (6, 3), (11, 5), (12, 6), (17, 8), (18, 9), (23, 11),
        (2, 12), (3, 13), (8, 15), (9, 16), (14, 18), (15, 19), (20, 21), (21, 22),
    )
    M12_TAU_PRIME = (
        (0, 0), (2, 1), (6, 3), (11, 5), (12, 6), (17, 8), (18, 9), (23, 11),
        (4, 13), (8, 15), (9, 16), (14, 18), (15, 19), (20, 21), (21, 22),
    )

    @pytest.mark.parametrize(
        "build, tau, prime",
        [
            pytest.param(
                lambda: gen_hamming_system(6, 1),
                (4, 955, H61_TAU),
                (3, 2_566, H61_TAU[:3], 0),
                id="hamming-6-1",
            ),
            pytest.param(
                lambda: gen_cycle_sharpness(12),
                (16, 1_032, M12_TAU),
                (15, 1_686, M12_TAU_PRIME, 5),
                id="cycle-sharpness-12",
            ),
        ],
    )
    def test_values_nodes_and_certificates(self, build, tau, prime):
        system = build()
        budget = SearchBudget()
        value, cert, exact = comatching_number(system, budget)
        assert exact and (value, budget.nodes, cert.pairs) == tau
        budget = SearchBudget()
        value, cert, exact = comatching_with_intersection_number(system, budget)
        assert exact
        assert (value, budget.nodes, cert.base.pairs, cert.common_point) == prime


class TestClassTops:
    """The colouring behind the clique bound, against a first-fit colouring
    built from the pair definition, on every candidate pair of a system
    and on random subsets of them."""

    @pytest.mark.parametrize("seed", range(30))
    def test_lower_table_and_tops_equal_first_fit(self, seed):
        system = density_system(seed + 9000)
        rng = random.Random(seed + 9000)
        pairs = [
            (m, p)
            for m in range(system.num_members)
            for p in range(system.num_points)
            if p not in system.member_elements(m)
        ]
        graph = CompatibilityGraph.build(system)
        assert graph.pairs == tuple(pairs)
        apart = graph.apart
        for i, entry in enumerate(apart):
            below = [
                j
                for j in range(i)
                if not oracle_pairs_compatible(system, pairs[i], pairs[j])
            ]
            # apart[i] holds the pairs below i that are not compatible with
            # it, and no bit from i's own up: the table stays triangular.
            assert entry >> i == 0
            assert entry == sum(1 << j for j in below)
        subsets = [range(len(pairs))]
        for _ in range(20):
            share = rng.random()
            subsets.append([i for i in range(len(pairs)) if rng.random() < share])
        for chosen in subsets:
            cand = sum(1 << i for i in chosen)
            tops = oracle_first_fit_class_tops(system, pairs, chosen)
            classes = _colour_classes(cand, apart, 0)
            assert [c.bit_length() - 1 for c in classes] == tops


class TestColourClasses:
    """The classes a value-pass node branches on, against the pair
    definition: a first-fit colouring from the highest pair down, cut to
    the classes above a given number."""

    @pytest.mark.parametrize("seed", range(30))
    def test_classes_are_the_first_fit_colouring_above_the_cut(self, seed):
        system = density_system(seed + 9100)
        rng = random.Random(seed + 9100)
        graph = CompatibilityGraph.build(system)
        pairs = graph.pairs
        assert graph.nonempty == sum(
            1 << i for i, (m, _) in enumerate(pairs) if system.member_elements(m)
        )
        subsets = [range(len(pairs))]
        for _ in range(20):
            share = rng.random()
            subsets.append([i for i in range(len(pairs)) if rng.random() < share])
        for chosen in subsets:
            cand = sum(1 << i for i in chosen)
            classes = _colour_classes(cand, graph.apart, 0)
            members = [[i for i in range(len(pairs)) if c >> i & 1] for c in classes]
            # The classes partition the candidates, and each is independent.
            assert sorted(i for group in members for i in group) == sorted(chosen)
            for group in members:
                assert not any(
                    oracle_pairs_compatible(system, pairs[i], pairs[j])
                    for i in group
                    for j in group
                    if i < j
                )
            # First fit from the top: a pair of class k meets a higher pair
            # in every earlier class, and the classes come in ascending order.
            for k, group in enumerate(members):
                for i in group:
                    for earlier in members[:k]:
                        assert any(
                            oracle_pairs_compatible(system, pairs[i], pairs[j])
                            for j in earlier
                            if j > i
                        )
            tops = oracle_first_fit_class_tops(system, pairs, chosen)
            assert [max(group) for group in members] == tops
            for cut in range(len(classes) + 2):
                assert _colour_classes(cand, graph.apart, cut) == classes[cut:]


class TestTwoSteps:
    """The value pass and the prefix decisions together: the certificate is
    the lexicographically first optimum whether the value pass's clique
    already was or the decisions had to find it, and every budget gives a
    certified result."""

    def test_certificates_equal_oracle_through_witness_hits_and_decisions(
        self, monkeypatch
    ):
        spent = []
        first_clique = search._first_clique

        def spy(system, graph, root, need_common_point, budget, witness):
            before = budget.nodes
            first = first_clique(system, graph, root, need_common_point, budget, witness)
            spent.append(budget.nodes - before)
            return first

        monkeypatch.setattr(search, "_first_clique", spy)
        runs = 0
        for seed in range(40):
            system = random_system(random.Random(seed + 7200), 6, 6)
            tau, cert, exact = comatching_number(system)
            assert exact
            assert (tau, cert.pairs) == oracle_lex_first_comatching(system)[:2]
            taup, cert, exact = comatching_with_intersection_number(system)
            size, pairs, common = oracle_lex_first_comatching(system, common_point=True)
            assert exact and taup == size
            if size == 0:
                assert cert is None
            else:
                assert (cert.base.pairs, cert.common_point) == (pairs, common)
            runs += (tau > 0) + (taup > 0)
        # Every search with a positive value runs the prefix loop.  On some
        # the witness hits every step and no node is spent; on others a
        # decision has to run.
        assert len(spent) == runs
        assert 0 in spent and any(spent)

    @staticmethod
    def value_pass(system, need_common_point):
        graph = CompatibilityGraph.build(system)
        root = graph.nonempty if need_common_point else (1 << len(graph.pairs)) - 1
        budget = SearchBudget()
        clique, exact = _value_pass(
            system, graph, root, system.full_mask, need_common_point, budget
        )
        assert exact
        pairs = tuple((graph.pairs[i][1], graph.pairs[i][0]) for i in clique)
        return pairs, budget.nodes

    @pytest.mark.parametrize(
        "system, need_common_point",
        [
            pytest.param(
                gen_cycle_sharpness(8), True, id="cycle-sharpness-8-tau-prime"
            ),
            pytest.param(
                random_system(random.Random(92), 8, 9), False, id="random-92-tau"
            ),
            pytest.param(
                random_system(random.Random(381), 8, 9), True, id="random-381-tau-prime"
            ),
        ],
    )
    def test_every_budget_through_both_passes(self, system, need_common_point):
        # Below the value pass's node count the result is a certified lower
        # bound; from there the value is proved, and a cut inside the prefix
        # decisions keeps the value pass's clique; once the budget covers
        # the decisions the certificate is the lexicographically first.
        search_fn = (
            comatching_with_intersection_number
            if need_common_point
            else comatching_number
        )
        budget = SearchBudget()
        truth, first, _ = search_fn(system, budget)
        total = budget.nodes
        clique, value_nodes = self.value_pass(system, need_common_point)
        first = first.base.pairs if need_common_point else first.pairs
        assert len(clique) == truth and clique != first
        assert value_nodes < total
        verify = (
            verify_comatching_with_intersection
            if need_common_point
            else verify_comatching
        )
        for nodes in range(total + 1):
            value, cert, exact = search_fn(system, SearchBudget(max_nodes=nodes))
            if cert is None:
                assert value == 0
            else:
                assert len(cert) == value and verify(system, cert).ok, nodes
            assert value <= truth and (not exact or value == truth), nodes
            assert exact == (nodes >= value_nodes), nodes
            if exact:
                pairs = cert.base.pairs if need_common_point else cert.pairs
                assert pairs == (first if nodes == total else clique), nodes


class TestDecisions:
    """The value pass with floor j - 1 and stop j, as the prefix decisions
    run it, finds a clique of j pairs exactly when brute force does, on
    random candidate subsets; for tau' the candidates are the pairs whose
    member meets a random intersection, and so must the clique's members."""

    @staticmethod
    def cliques(system, pairs, cand, inter, need_common_point):
        """Every clique among ``cand``, grown one later compatible pair at a
        time; for tau', only those whose members meet ``inter``."""
        found, frontier = [], [((), inter)]
        while frontier:
            grown = []
            for clique, common in frontier:
                for i in cand:
                    if clique and i <= clique[-1]:
                        continue
                    meet = common & system.masks[pairs[i][0]]
                    if (meet or not need_common_point) and all(
                        oracle_pairs_compatible(system, pairs[i], pairs[j])
                        for j in clique
                    ):
                        grown.append((clique + (i,), meet))
            found += [clique for clique, _ in grown]
            frontier = grown
        return found

    @pytest.mark.parametrize("seed", range(20))
    def test_decisions_equal_brute_force(self, seed):
        system = density_system(seed + 9500)
        rng = random.Random(seed + 9500)
        graph = CompatibilityGraph.build(system)
        pairs = graph.pairs
        for need_common_point in (False, True):
            for _ in range(8):
                share = rng.random()
                cand = [i for i in range(len(pairs)) if rng.random() < share]
                inter = system.full_mask
                if need_common_point:
                    inter = rng.randrange(1, system.full_mask + 1)
                    cand = [i for i in cand if system.masks[pairs[i][0]] & inter]
                cliques = self.cliques(system, pairs, cand, inter, need_common_point)
                largest = max(map(len, cliques), default=0)
                bits = sum(1 << i for i in cand)
                for j in range(1, largest + 2):
                    clique, exact = _value_pass(
                        system, graph, bits, inter, need_common_point,
                        SearchBudget(), j - 1, j,
                    )
                    assert exact and len(clique) == (j if j <= largest else 0)
                    assert not clique or clique in cliques

    @pytest.mark.parametrize("seed", range(20))
    def test_first_clique_from_any_maximum_witness(self, seed):
        # Whichever maximum clique the value pass hands over, the prefix
        # loop returns the lexicographically first one.
        system = density_system(seed + 9600)
        graph = CompatibilityGraph.build(system)
        pairs = graph.pairs
        for need_common_point in (False, True):
            root = graph.nonempty if need_common_point else (1 << len(pairs)) - 1
            cand = [i for i in range(len(pairs)) if root >> i & 1]
            cliques = self.cliques(
                system, pairs, cand, system.full_mask, need_common_point
            )
            largest = max(map(len, cliques), default=0)
            maximum = [clique for clique in cliques if len(clique) == largest]
            for witness in maximum if largest else ():
                first = search._first_clique(
                    system, graph, root, need_common_point, SearchBudget(), witness
                )
                assert first == min(maximum), witness


def square_system(seed, n):
    """n points and n members, each point in a member with probability 1/2."""
    rng = random.Random(seed)
    members = [
        (f"F{j}", [p for p in range(n) if rng.random() < 0.5]) for j in range(n)
    ]
    return SetSystem.build([f"x{p}" for p in range(n)], members)


class TestDerivedStructures:
    """tau and tau' share one compatibility graph per system, and
    minimal_empty_subfamilies and eta one enumeration, each built on first
    use and gone with the system."""

    def test_each_structure_is_built_once_per_system(self, derivations):
        builds, enumerations = derivations
        system = gen_cycle_sharpness(5)
        assert comatching_number(system)[0] == 6
        assert comatching_with_intersection_number(system)[0] == 6
        assert len(builds) == 1 and builds[0] is system and enumerations == []
        minimal = minimal_empty_subfamilies(system)
        assert helly_number(system) == 6
        assert colorful_helly_number(system, tau_prime=6)[:2] == (6, True)
        assert minimal_empty_subfamilies(system) is minimal
        # The instance test enumerates its own subsystem, not the system.
        instance = ColorfulInstance((minimal[0],) * len(minimal[0]))
        assert instance_admits_empty_transversal(system, instance)
        assert len(builds) == 1 and enumerations[0] is system
        assert not any(s is system for s in enumerations[1:])

    def test_unequal_systems_never_share_an_entry(self, derivations):
        builds, enumerations = derivations
        rng = random.Random(4400)
        systems = [random_system(rng, 6, 6) for _ in range(20)]
        # The same members under other ground labels: an unequal system.
        first = systems[0]
        systems.append(SetSystem(tuple(x + "'" for x in first.ground), first.members))
        twin = SetSystem(systems[1].ground, systems[1].members)
        for system in systems + [twin]:
            comatching_number(system)
            colorful_helly_number(system)
        distinct = [s for i, s in enumerate(systems) if s not in systems[:i]]
        assert len(distinct) > 10
        # An equal system reads the entry of the first; no other shares one.
        assert [id(s) for s in builds] == [id(s) for s in distinct]
        assert [id(s) for s in enumerations] == [id(s) for s in distinct]
        graphs = [search._graphs[s] for s in distinct]
        assert len({id(g) for g in graphs}) == len(distinct)
        for system, graph in zip(distinct, graphs):
            pairs = tuple((m, p) for p, m in complement_incidence(system))
            assert graph.pairs == pairs
            assert search._minimal_empties[system] == tuple(
                oracle_minimal_empty_subfamilies(system)
            )
            assert comatching_number(system)[0] == oracle_comatching_number(system)[0]

    def test_entries_go_with_their_system(self, derivations):
        builds, enumerations = derivations
        system = random_system(random.Random(4401), 6, 6)
        comatching_number(system)
        comatching_with_intersection_number(system)
        minimal_empty_subfamilies(system)
        assert len(search._graphs) == len(search._minimal_empties) == 1
        # The graph's memos go with it: a value planted in each is freed.
        graph = search._graphs[system]
        assert graph.meets and graph.colourings
        planted = [Planted(), Planted()]
        graph.meets[-1], graph.colourings[-1] = planted
        refs = [weakref.ref(value) for value in planted]
        del graph, planted
        builds.clear()
        enumerations.clear()
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None
        assert len(search._graphs) == len(search._minimal_empties) == 0
        assert [r() for r in refs] == [None, None]


class Planted:
    """A value that can be weakly referenced, to watch a memo let go."""


class TestGraphMemos:
    """The compatibility graph's memos of meet masks and root colourings
    never change what tau and tau' return: value, certificate, exact flag
    and node count are the same from a fresh graph, from a graph that
    earlier searches filled (the same system again, and an equal twin,
    which reads the same entry) and under every node budget."""

    @staticmethod
    def outcome(search_fn, system, nodes):
        budget = SearchBudget(max_nodes=nodes)
        return (*search_fn(system, budget), budget.nodes)

    @pytest.mark.parametrize(
        "system",
        [
            pytest.param(gen_hamming_system(5, 1), id="hamming-5-1"),
            # Its tau and tau' run the prefix decisions.
            pytest.param(gen_cycle_sharpness(8), id="cycle-sharpness-8"),
        ]
        + [
            pytest.param(
                random_system(random.Random(seed + 9300), 8, 9), id=f"random-{seed}"
            )
            for seed in range(20)
        ],
    )
    def test_results_equal_from_cold_and_warm_graphs(self, system, derivations):
        builds, _ = derivations
        searches = (comatching_number, comatching_with_intersection_number)
        budgets = (0, 1, 50, None)
        cold = {}
        for search_fn in searches:
            for nodes in budgets:
                fresh = SetSystem(system.ground, system.members)
                cold[search_fn, nodes] = self.outcome(search_fn, fresh, nodes)
                del search._graphs[fresh]
        twin = SetSystem(system.ground, system.members)
        for search_fn in searches:
            for nodes in budgets:
                expected = cold[search_fn, nodes]
                assert self.outcome(search_fn, system, nodes) == expected
                assert self.outcome(search_fn, system, nodes) == expected
                assert self.outcome(search_fn, twin, nodes) == expected
        assert len(builds) == len(cold) + 1
        assert search._graphs[twin] is search._graphs[system]
        assert search._graphs[system].colourings

class TestNodeBudgetSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_budget_gives_a_verified_certificate(self, seed):
        system = square_system(seed + 8000, 8)
        tau = comatching_number(system)[0]
        taup = comatching_with_intersection_number(system)[0]
        inexact = 0
        for nodes in range(31):
            value, cert, exact = comatching_number(
                system, SearchBudget(max_nodes=nodes)
            )
            assert len(cert) == value and verify_comatching(system, cert).ok
            assert value <= tau and (not exact or value == tau), nodes
            inexact += not exact
            value, cert, exact = comatching_with_intersection_number(
                system, SearchBudget(max_nodes=nodes)
            )
            if cert is None:
                assert value == 0
            else:
                assert len(cert) == value
                assert verify_comatching_with_intersection(system, cert).ok
            assert value <= taup and (not exact or value == taup), nodes
            inexact += not exact
        assert inexact > 0


class TestDeepSearch:
    """The members X - {i} of an n-point X, with n past the recursion
    limit: tau = n, tau' = n - 1, and X is the one minimal empty
    subfamily, each found at depth about n."""

    N = sys.getrecursionlimit() + 100

    @pytest.fixture(scope="class")
    def system(self):
        n = self.N
        return SetSystem.build(
            [f"x{p}" for p in range(n)],
            [(f"F{i}", [p for p in range(n) if p != i]) for i in range(n)],
        )

    def test_comatching_number(self, system):
        tau, cert, exact = comatching_number(system)
        assert (tau, exact) == (self.N, True)
        assert verify_comatching(system, cert).ok

    def test_comatching_with_intersection_number(self, system):
        taup, cert, exact = comatching_with_intersection_number(system)
        assert (taup, exact) == (self.N - 1, True)
        assert verify_comatching_with_intersection(system, cert).ok

    def test_minimal_empty_subfamilies(self, system):
        assert minimal_empty_subfamilies(system) == (frozenset(range(self.N)),)

    def test_floor_refuting_instance_replays(self, system):
        # h = N and 1 + tau' = N close the sandwich; the floor instance is N - 1
        # copies of X, which no transversal empties.
        minimal = (frozenset(range(self.N)),)
        eta, exact, refuting = colorful_helly_number(system, None, self.N - 1)
        assert (eta, exact, refuting.families) == (self.N, True, minimal * (self.N - 1))
        assert not instance_admits_empty_transversal(system, refuting)

    def test_analyze(self, system, tmp_path):
        path, out = tmp_path / "deep.json", tmp_path / "report.json"
        path.write_text(jsonio.dump_canonical(jsonio.set_system_to_doc(system)))
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["comatching_number"] == {"value": self.N, "exact": True}
        assert results["comatching_with_intersection_number"] == {
            "value": self.N - 1,
            "exact": True,
        }


class TestMinimalEmptySubfamilies:
    def test_sharpness_m2(self, sharp2):
        assert set(minimal_empty_subfamilies(sharp2)) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_shared_point_gives_none(self):
        assert minimal_empty_subfamilies(shared_point_system()) == ()

    def test_empty_member_appears_as_singleton(self):
        s = SetSystem.build(["a"], [("E", []), ("F", [0])])
        assert frozenset({0}) in minimal_empty_subfamilies(s)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_bruteforce(self, seed):
        system = random_system(random.Random(seed + 2000), 5, 5)
        assert sorted(minimal_empty_subfamilies(system)) == sorted(
            oracle_minimal_empty_subfamilies(system)
        )


    @pytest.mark.parametrize(
        "n, count", [(4, 80), (5, 416), (6, 1904)], ids=["4-1", "5-1", "6-1"]
    )
    def test_hamming_counts_and_minimality(self, n, count):
        system = gen_hamming_system(n, 1)
        minimal = minimal_empty_subfamilies(system)
        assert len(minimal) == len(set(minimal)) == count
        for sel in minimal:
            assert intersection_mask(system, sel) == 0
            assert all(intersection_mask(system, sel - {j}) for j in sel)

    @pytest.mark.parametrize(
        "members",
        [
            # Repeated members: each copy starts its own minimal subfamilies.
            [[0, 1], [2, 3], [0, 1], [1, 2], [2, 3], [3, 0]],
            # An empty member is a minimal subfamily on its own and never
            # part of a larger one.
            [[], [0, 1], [1, 2], [2, 0], []],
            # Point 0 lies in every member, so no subfamily is empty.
            [[0, 1], [0, 2], [0, 3], [0]],
        ],
        ids=["repeated", "empty-member", "point-in-every-member"],
    )
    def test_matches_oracle_on_edge_cases(self, members):
        system = SetSystem.build(
            ["a", "b", "c", "d"], [(f"F{j}", m) for j, m in enumerate(members)]
        )
        assert minimal_empty_subfamilies(system) == tuple(
            oracle_minimal_empty_subfamilies(system)
        )


    # SHA-256 of repr([sorted(s) for s in minimal]), with the subfamily
    # count, taken from the enumeration before it worked in point space.
    REFERENCE_DIGESTS = [
        ("hamming", (4, 1), 80,
         "51c1280e94035d1cf3ea101d451f697968a277a8997851acb017a1fbf1041a79"),
        ("hamming", (5, 1), 416,
         "22eb279e966a359213f000142eeb4150a709f58b7f7970a8de9bf3acc954bb0f"),
        ("hamming", (6, 1), 1904,
         "9f13b9b039a8fc06fdfd23b80ae514a72d65a196379c8e396d54e5cf779305b6"),
        ("hamming", (7, 1), 8128,
         "5e1b2963fb8dd27051a390ea302cf5552941cc2f0d06ad0cf24a9d2885268997"),
        ("hamming", (6, 2), 66024,
         "92b9f4fcc9633ad1e7e5f6cb9cecff1b8d78bf155be2ebc148dd3c4f24d77129"),
        ("cycle-sharpness", (2,), 2,
         "72b51f0d1a57e54ee5f792c9617e75b218aa4dffce916945eb4387ad20e173dd"),
        ("cycle-sharpness", (3,), 5,
         "c38222dfb04e9d5b4b0032e6df38033899faa8e3db84d05607ff733ae095e80d"),
        ("cycle-sharpness", (4,), 10,
         "eff8f0d427a5b6bf4e02a4a37ab171413a9f51f09b78410d6ff0d6f69c87ee03"),
        ("cycle-sharpness", (5,), 17,
         "1198b1ad08a35bebf26f1e349f9f69fafbf0b81042abfc722217185cd9273e57"),
        ("cycle-sharpness", (6,), 29,
         "2965fb203d96b6d69b57252fabc072afae42709af8f2be344907526cfaa5cc8d"),
        ("cycle-sharpness", (7,), 51,
         "8bcc886464e7f74b3d29a880d6bc7ea1bae97584e77eccb6405056147dd06b7a"),
        ("cycle-sharpness", (8,), 90,
         "afdafad9d7a6002ee1b458cf4bf84c0eb9f0b4ce529fc9b6572a89a3fd8b28ec"),
        ("cycle-sharpness", (9,), 158,
         "2f4b560616455739088c94b484c9b699eeaffe1f500d0df6ee73a2128afb628d"),
        ("cycle-sharpness", (10,), 277,
         "7b056174e0ab97f88955a37a8c2193750723fc7f84c071d1465411e893a63872"),
        ("cycle-sharpness", (11,), 486,
         "d392256629f3500f59562619b78a767dbfcc12b0d60128a70d6f6dfb06ec7898"),
    ]

    @pytest.mark.parametrize(
        "kind, params, count, digest",
        REFERENCE_DIGESTS,
        ids=["-".join(map(str, (k, *p))) for k, p, _, _ in REFERENCE_DIGESTS],
    )
    def test_tuple_is_the_reference_tuple(self, kind, params, count, digest):
        # The whole tuple, order included: by size, then as sorted lists.
        build = {"hamming": gen_hamming_system, "cycle-sharpness": gen_cycle_sharpness}
        minimal = minimal_empty_subfamilies(build[kind](*params))
        text = repr([sorted(s) for s in minimal])
        assert len(minimal) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_matches_oracle_on_a_seeded_sweep(self):
        # Up to 7 points and 8 members, empty ground and empty family
        # included, at densities from sparse to nearly full.
        sizes = set()
        for seed in range(1000):
            rng = random.Random(seed + 7700)
            n, m = rng.randint(0, 7), rng.randint(0, 8)
            density = rng.uniform(0.2, 0.9)
            members = [
                (f"F{j}", [p for p in range(n) if rng.random() < density])
                for j in range(m)
            ]
            system = SetSystem.build([f"x{p}" for p in range(n)], members)
            minimal = minimal_empty_subfamilies(system)
            assert minimal == tuple(oracle_minimal_empty_subfamilies(system)), seed
            sizes.update(len(s) for s in minimal)
        assert sizes >= set(range(6))

    @pytest.mark.parametrize(
        "ground, members",
        [
            ([], [[], []]),
            (["a", "b"], []),
            # Points b and c lie in the same members.
            (["a", "b", "c", "d"], [[0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 2, 3]]),
            # F1 and F3 are the same member under two names.
            (["a", "b", "c"], [[0, 1], [1, 2], [0, 1], [0, 2]]),
            (["a", "b", "c"], [[0, 1], [], [1, 2], [0, 2]]),
            # F0 is the ground set, so it lies in no empty subfamily.
            (["a", "b", "c"], [[0, 1, 2], [0], [1], [2, 0]]),
        ],
        ids=[
            "no-points",
            "no-members",
            "duplicated-point",
            "duplicated-member",
            "empty-member",
            "member-equal-to-ground",
        ],
    )
    def test_matches_oracle_on_hand_built_systems(self, ground, members):
        system = SetSystem.build(ground, [(f"F{j}", m) for j, m in enumerate(members)])
        assert minimal_empty_subfamilies(system) == tuple(
            oracle_minimal_empty_subfamilies(system)
        )

class TestHellyNumber:
    def test_sharpness_m2(self, sharp2):
        assert helly_number(sharp2) == 2

    def test_shared_point_convention(self):
        assert helly_number(shared_point_system()) == 1

    def test_hamming_4_1_2(self):
        assert helly_number(gen_hamming_system(4, 1, 2)) == 4

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce(self, seed):
        system = random_system(random.Random(seed + 3000), 5, 5)
        assert helly_number(system) == oracle_helly_number(system)


class TestColorfulHellyNumber:
    def test_sharpness_m2(self, sharp2):
        eta, exact, refuting = colorful_helly_number(sharp2)
        assert (eta, exact) == (3, True)
        assert refuting is not None and len(refuting) == 2
        assert set(refuting.families) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_shared_point_vacuous(self):
        eta, exact, refuting = colorful_helly_number(shared_point_system())
        assert (eta, exact, refuting) == (1, True, None)

    def test_sharpness_m3(self):
        eta, exact, _ = colorful_helly_number(gen_cycle_sharpness(3))
        assert (eta, exact) == (4, True)

    def test_hamming_4_1_2(self):
        # 2^(t+1) at t=1; consistent with eta = 1 + tau' since tau' = 3.
        eta, exact, _ = colorful_helly_number(gen_hamming_system(4, 1, 2))
        assert (eta, exact) == (4, True)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_direct_multiset_enumeration(self, seed):
        system = random_system(random.Random(seed + 4000), 4, 4)
        eta, exact, _ = colorful_helly_number(system)
        assert exact
        assert eta == oracle_colorful_helly_number(system)

    @pytest.mark.parametrize("seed", range(30))
    def test_sandwich_and_search_match_oracle(self, seed):
        system = random_system(random.Random(seed + 4500), 6, 6)
        truth = oracle_colorful_helly_number(system, max_n=8)
        tau_prime, _, tau_prime_exact = comatching_with_intersection_number(system)
        assert tau_prime_exact
        for given in (None, tau_prime):
            eta, exact, refuting = colorful_helly_number(system, tau_prime=given)
            assert (eta, exact) == (truth, True), given
            assert_refutes(system, refuting, eta)

    # Seeds of density_system with eta = 3 > h = 2: the search, not the
    # sandwich, has to find eta, and stops at size tau' where tau' = 2.
    ABOVE_HELLY_SEEDS = (1192, 2143, 2958, 3032, 4766, 5676)

    @pytest.mark.parametrize("seed", ABOVE_HELLY_SEEDS)
    def test_search_above_helly_matches_oracle(self, seed):
        system = density_system(seed)
        assert helly_number(system) == 2
        truth = oracle_colorful_helly_number(system, max_n=8)
        assert truth == 3
        tau_prime = comatching_with_intersection_number(system)[0]
        for given in (None, tau_prime):
            eta, exact, refuting = colorful_helly_number(system, tau_prime=given)
            assert (eta, exact) == (truth, True), given
            assert_refutes(system, refuting, eta)

    @pytest.mark.parametrize(
        "system",
        [random_system(random.Random(seed + 4600), 6, 6) for seed in range(10)]
        + [density_system(seed) for seed in ABOVE_HELLY_SEEDS],
    )
    def test_node_budgets_give_certified_lower_bounds(self, system):
        truth = oracle_colorful_helly_number(system, max_n=8)
        tau_prime = comatching_with_intersection_number(system)[0]
        for nodes in (1, 5, 50):
            for given in (None, tau_prime):
                budget = SearchBudget(max_nodes=nodes)
                eta, exact, refuting = colorful_helly_number(system, budget, given)
                assert eta <= truth and (not exact or eta == truth), (nodes, given)
                assert eta >= helly_number(system)
                assert_refutes(system, refuting, eta)

    def test_sandwich_closes_without_search(self):
        # cycle-sharpness M=4: h = 5 = 1 + tau', so eta is certified by
        # h - 1 copies of a largest minimal empty subfamily, with no node spent.
        system = gen_cycle_sharpness(4)
        minimal = minimal_empty_subfamilies(system)
        h = helly_number(system)
        budget = SearchBudget()
        eta, exact, refuting = colorful_helly_number(system, budget, tau_prime=4)
        assert (eta, exact, budget.nodes) == (h, True, 0)
        assert len(set(refuting.families)) == 1
        assert refuting.families[0] in minimal and len(refuting.families[0]) == h
        assert_refutes(system, refuting, eta)
        # Without tau', the search reaches the same value.
        assert colorful_helly_number(system)[:2] == (5, True)

    def test_tau_prime_below_helly_rejected(self):
        with pytest.raises(InputError):
            colorful_helly_number(gen_cycle_sharpness(4), tau_prime=3)

    @pytest.mark.parametrize("seed", range(12))
    def test_monotone_in_instance_count(self, seed):
        # Once every N-instance admits an empty transversal, every larger

        # instance does too: checked by direct enumeration on tiny systems.
        system = random_system(random.Random(seed + 5000), 4, 3)
        minimal = minimal_empty_subfamilies(system)
        if not minimal or system.num_points == 0:
            return
        admits_all = []
        for n in (1, 2, 3):
            admits_all.append(
                all(
                    oracle_instance_admits_empty_transversal(system, tup)
                    for tup in combinations_with_replacement(minimal, n)
                )
            )
        for smaller, larger in zip(admits_all, admits_all[1:]):
            assert not smaller or larger

    def test_refuting_instance_replays(self, sharp2):
        _, _, refuting = colorful_helly_number(sharp2)
        assert not oracle_instance_admits_empty_transversal(
            sharp2, refuting.families
        )

    def test_cycle_sharpness_m5_pinned(self):
        # h = 6 > 1 + tau' fails to close the sandwich without tau', so the
        # level search runs to size 5 and stops at an empty level 6.
        system = gen_cycle_sharpness(5)
        budget = SearchBudget()
        eta, exact, refuting = colorful_helly_number(system, budget)
        assert (eta, exact, budget.nodes) == (6, True, 27_356)
        low, high = frozenset(range(5)), frozenset(range(5, 10))
        assert refuting.families == (low,) * 4 + (high,)
        assert_refutes(system, refuting, eta)

    @pytest.mark.parametrize(
        "system",
        [random_system(random.Random(seed + 7000), 6, 6) for seed in range(40)]
        + [density_system(seed) for seed in range(120)]
        + [density_system(seed) for seed in ABOVE_HELLY_SEEDS]
        + [gen_cycle_sharpness(3), gen_cycle_sharpness(4)],
    )
    def test_equals_level_search_with_product_scan(self, system):
        tau_prime, _, tau_prime_exact = comatching_with_intersection_number(system)
        assert tau_prime_exact
        for given in (None, tau_prime):
            for nodes in (None, 1, 5, 50):
                budget = SearchBudget(max_nodes=nodes)
                eta, exact, refuting = colorful_helly_number(system, budget, given)
                families = refuting.families if refuting else None
                assert (eta, exact, families, budget.nodes) == oracle_eta_level_search(
                    system, given, nodes
                ), (given, nodes)

    @pytest.mark.parametrize("nodes", [1, 50, 5_000])
    def test_cycle_sharpness_m5_equals_level_search_under_budgets(self, nodes):
        # No minimal empty subfamily has fewer than 5 members, so levels 0-4
        # hold every multiset of their size and skip the Apriori test; 5,000
        # nodes stop inside level 3's extension.  The unbudgeted oracle is
        # too slow here.
        system = gen_cycle_sharpness(5)
        for given in (None, 6):
            budget = SearchBudget(max_nodes=nodes)
            eta, exact, refuting = colorful_helly_number(system, budget, given)
            assert (eta, exact, refuting.families, budget.nodes) == (
                oracle_eta_level_search(system, given, nodes)
            ), given

    def test_cycle_sharpness_m8_pinned_under_node_budget(self):
        # h = 10 and tau' = 10 leave eta in [10, 11].  No minimal empty
        # subfamily has fewer than 8 members, so levels 0-7 are complete;
        # the 200,000 nodes end inside level 3's extension, below h, and the
        # floor instance is the certificate.
        system = gen_cycle_sharpness(8)
        minimal = minimal_empty_subfamilies(system)
        largest = next(s for s in minimal if len(s) == 10)
        assert sorted(system.member_name(j) for j in largest) == [
            "e1", "e2", "e3", "e4", "e6", "e7", "o4", "o5", "o7", "o8"
        ]
        budget = SearchBudget(max_nodes=200_000)
        eta, exact, refuting = colorful_helly_number(system, budget, 10)
        assert (eta, exact, refuting.families) == (10, False, (largest,) * 9)
        assert budget.nodes == 200_001


    @pytest.mark.parametrize(
        "nodes", [5_984, 5_985, 20_000, 26_333, 26_334, 27_355, 27_356]
    )
    def test_cycle_sharpness_m5_under_node_budgets(self, nodes):
        # Sizes 1-4 take 5,984 nodes, one budget call per size; the scored
        # candidates of size 5 bring the count to 26,333 and those of size 6
        # to 27,356.  Every cut stops below h = 6, at the floor instance.
        system = gen_cycle_sharpness(5)
        minimal = minimal_empty_subfamilies(system)
        largest = next(s for s in minimal if len(s) == 6)
        low, high = frozenset(range(5)), frozenset(range(5, 10))
        expected = (6, False, (largest,) * 5, nodes + 1)
        if nodes == 27_356:
            expected = (6, True, (low,) * 4 + (high,), nodes)
        for given in (None, 6):
            budget = SearchBudget(max_nodes=nodes)
            eta, exact, refuting = colorful_helly_number(system, budget, given)
            assert (eta, exact, refuting.families, budget.nodes) == expected, given

    def test_cycle_sharpness_m8_counts_its_levels_without_listing_them(self):
        # All 2,000,001 nodes of the default budget fall below size 8, where
        # every multiset refutes; none of those levels is built.
        system = gen_cycle_sharpness(8)
        minimal = minimal_empty_subfamilies(system)
        largest = next(s for s in minimal if len(s) == 10)
        budget = SearchBudget(max_nodes=2_000_000)
        tracemalloc.start()
        try:
            eta, exact, refuting = colorful_helly_number(system, budget, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (eta, exact, refuting.families) == (10, False, (largest,) * 9)
        assert budget.nodes == 2_000_001
        assert peak < 1 << 20


    @pytest.mark.parametrize(
        "k, nodes, lattice", [(3, 20, True), (10, 90, False), (28, 495, False)]
    )
    def test_join_systems_on_both_sides_of_the_lattice_width(
        self, monkeypatch, k, nodes, lattice
    ):
        # The one scored level has N = k + 2 and two groups: 2 * 2**5 = 64
        # lattice bits for k = 3, against 8,192 for k = 10 and 2**31 for
        # k = 28, which take _completions.
        system = join_system(k)
        built = []

        def lattice_spy(*args):
            built.append(args)
            return _SubsetLattice(*args)

        monkeypatch.setattr(search, "_SubsetLattice", lattice_spy)
        for given in (None, k + 2):
            budget = SearchBudget()
            eta, exact, refuting = colorful_helly_number(system, budget, given)
            assert (eta, exact, budget.nodes) == (k + 2, True, nodes), given
            assert len(refuting) == k + 1
            assert not instance_admits_empty_transversal(system, refuting)
            if k == 3:
                assert (eta, exact, refuting.families, budget.nodes) == (
                    oracle_eta_level_search(system, given)
                ), given
        assert len(built) == (2 if lattice else 0)

    def test_many_group_level_under_node_budget(self):
        # Level 2 has 1,920 groups (7,680 lattice bits), so it takes
        # _completions, with each family's meets from its members' groups.
        system = seed7_system()
        minimal = minimal_empty_subfamilies(system)
        assert len(minimal) == 3_466
        largest = next(s for s in minimal if len(s) == 3)
        for given in (None, 3):
            budget = SearchBudget(300_000)
            eta, exact, refuting = colorful_helly_number(system, budget, given)
            assert (eta, exact, refuting.families) == (3, False, (largest,) * 2)
            assert budget.nodes == 300_001


class TestLevelScoring:
    """The subset lattice and the per-group matchings score alike."""

    @pytest.mark.parametrize("seed", range(60))
    def test_lattice_rows_match_completions(self, seed):
        system = density_system(seed)
        minimal = minimal_empty_subfamilies(system)
        if not minimal:
            return
        n = len(minimal)
        member_bits = [sum(1 << j for j in sel) for sel in minimal]
        families_of = [[] for _ in range(system.num_members)]
        for i, sel in enumerate(minimal):
            for j in sel:
                families_of[j].append(i)
        for size in sorted({len(sel) for sel in minimal}):
            groups = [sel for sel in minimal if len(sel) == size]
            group_bits = [sum(1 << j for j in sel) for sel in groups]
            meets = _meets(groups, minimal)
            lattice = _SubsetLattice(groups, families_of, n)
            for key in list(combinations_with_replacement(range(n), size - 1))[:300]:
                row = lattice.row(key)
                completions = _completions(key, member_bits, group_bits, meets)
                assert [not t & row for t in lattice.tests] == [
                    not b & completions for b in member_bits
                ], key

    @pytest.mark.parametrize("seed", range(30))
    def test_meets_is_the_intersection_table(self, seed):
        system = density_system(seed)
        minimal = minimal_empty_subfamilies(system)
        member_bits = [sum(1 << j for j in sel) for sel in minimal]
        for size in {len(sel) for sel in minimal}:
            groups = [sel for sel in minimal if len(sel) == size]
            assert _meets(groups, minimal) == [
                sum(1 << g for g, group in enumerate(groups) if group & sel)
                for sel in minimal
            ]


class TestEmptyTransversal:
    """The matching test of ``instance_admits_empty_transversal`` against
    the product scan over every transversal."""

    # X - {i} on three points: S = {A, B, C} is the one minimal empty
    # subfamily.
    X3 = SetSystem.build("abc", [("A", [1, 2]), ("B", [0, 2]), ("C", [0, 1])])

    @staticmethod
    def agree(system, families):
        answer = instance_admits_empty_transversal(
            system, ColorfulInstance.build(families)
        )
        assert answer == oracle_instance_admits_empty_transversal(system, families)
        return answer

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_product_scan(self, seed):
        # Random instances, padded or not, and tuples of minimal empty
        # subfamilies, which refute more often; both answers occur.
        rng = random.Random(9 + seed)
        answers = []
        while len(answers) < 400:
            system = random_system(rng, 8, 9)
            instance = random_refutable_instance(rng, system, max_positions=6)
            if instance is None:
                continue
            answers.append(self.agree(system, instance.families))
            minimal = minimal_empty_subfamilies(system)
            k = rng.randint(1, max(len(s) for s in minimal) + 1)
            answers.append(self.agree(system, rng.choices(minimal, k=k)))
        assert 0 < answers.count(False) < len(answers)

    def test_perfect_matching(self):
        # With N = |S| every position must take its own member of S.
        assert self.agree(self.X3, [{0, 1}, {1, 2}, {0, 2}])
        assert self.agree(self.X3, [{0, 1, 2}, {0}, {1}])
        assert not self.agree(self.X3, [{0, 1, 2}, {0}, {0}])
        assert not self.agree(self.X3, [{0, 1}, {0, 1}, {0, 1}])  # C never occurs

    def test_subfamily_larger_than_instance(self):
        assert not self.agree(self.X3, [{0, 1, 2}, {0, 1, 2}])
        assert self.agree(self.X3, [{0, 1, 2}] * 3)

    def test_zero_point_system(self):
        # Every transversal intersects to the empty ground set.
        system = SetSystem.build([], [("A", []), ("B", [])])
        assert self.agree(system, [{0}])
        assert self.agree(system, [{0}, {1}, {0, 1}])

    def test_repeated_positions(self, sharp2):
        # h = 2 for M = 2: h - 1 copies of a minimal S refute, h copies do not.
        s = next(s for s in minimal_empty_subfamilies(sharp2) if len(s) == 2)
        assert not self.agree(sharp2, [s])
        assert self.agree(sharp2, [s, s])
        assert self.agree(sharp2, [s, s, s])


def brute_exposable(adjacency, members):
    """Members missed by some position-covering matching, by trying every
    assignment of distinct members to the positions."""
    bits = [1 << k for k in range(members.bit_length()) if members >> k & 1]
    out = 0
    for chosen in permutations(bits, len(adjacency)):
        if all(adj & bit for adj, bit in zip(adjacency, chosen)):
            out |= members & ~sum(chosen)
    return out


class TestExposableMembers:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n_members = rng.randint(0, 6)
        members = (1 << n_members) - 1
        adjacency = [
            rng.getrandbits(n_members) if n_members else 0
            for _ in range(rng.randint(0, n_members + 1))
        ]
        assert _exposable_members(adjacency, members) == brute_exposable(
            adjacency, members
        )

    def test_long_augmenting_path(self):
        # Positions 0..n-2 first take member k each; position n-1 can only
        # take member 0, so every earlier position must shift up by one, an
        # augmenting path through all n positions.  Position n-2 may also
        # take member n, which stays uncovered or swaps with member n-1.
        n = sys.getrecursionlimit() + 10
        adjacency = [0b11 << k for k in range(n - 1)] + [1]
        adjacency[n - 2] |= 1 << n
        members = (1 << (n + 1)) - 1
        assert _exposable_members(adjacency, members) == 0b11 << (n - 1)

    def test_long_alternating_path(self):
        # A path of n positions over n + 1 members: any member can be the
        # uncovered one, reached from member n through all n positions.
        n = sys.getrecursionlimit() + 10
        adjacency = [0b11 << k for k in range(n)]
        members = (1 << (n + 1)) - 1
        assert _exposable_members(adjacency, members) == members

    def test_no_covering_matching(self):
        assert _exposable_members([0b1, 0b1], 0b11) == 0


class TestDichotomy:
    def test_witness_on_refuting_instance(self, sharp2):
        inst = ColorfulInstance.build([[0, 1], [2, 3]])
        outcome = colorful_transversal_dichotomy(sharp2, inst)
        assert not outcome.is_transversal
        witness = outcome.witness
        assert len(witness) == 2
        assert verify_comatching_with_intersection(sharp2, witness).ok

    def test_transversal_on_admitting_instance(self, sharp2):
        inst = ColorfulInstance.build([[0, 1, 2, 3]] * 3)
        outcome = colorful_transversal_dichotomy(sharp2, inst)
        assert outcome.is_transversal
        assert intersect_subfamily(sharp2, outcome.transversal) == frozenset()

    def test_family_with_empty_member_yields_transversal(self):
        s = SetSystem.build(["a"], [("E", []), ("F", [0])])
        outcome = colorful_transversal_dichotomy(
            s, ColorfulInstance.build([[0]])
        )
        assert outcome.is_transversal

    def test_invalid_instance_rejected(self, sharp2):
        with pytest.raises(InputError):
            colorful_transversal_dichotomy(
                sharp2, ColorfulInstance.build([[0, 2]])  # A ∩ C nonempty
            )
        with pytest.raises(InputError):
            colorful_transversal_dichotomy(sharp2, ColorfulInstance.build([[]]))

    @pytest.mark.parametrize("seed", range(60))
    def test_returned_arm_always_verifies(self, seed):
        rng = random.Random(seed + 6000)
        system = random_system(rng, 6, 6)
        instance = random_refutable_instance(rng, system)
        if instance is None:
            return
        outcome = colorful_transversal_dichotomy(system, instance)
        if outcome.is_transversal:
            assert intersect_subfamily(system, outcome.transversal) == frozenset()
            for j, fam in zip(outcome.transversal, instance.families):
                assert j in fam
        else:
            assert len(outcome.witness) == len(instance)
            assert verify_comatching_with_intersection(system, outcome.witness).ok


class TestFractionalHellyProfile:
    def test_shared_point(self):
        profile = fractional_helly_profile(shared_point_system(), 2)
        assert profile.alpha == 1 and profile.beta == 1

    def test_sharpness_triples(self, sharp2):
        assert fractional_helly_profile(sharp2, 3).alpha == 0

    def test_sharpness_pairs(self, sharp2):
        profile = fractional_helly_profile(sharp2, 2)
        assert profile.alpha == Fraction(4, 6)
        assert profile.intersecting_tuples == 4
        assert profile.beta == Fraction(1, 2)

    def test_oversized_k_rejected(self, sharp2):
        with pytest.raises(InputError):
            fractional_helly_profile(sharp2, 5)
