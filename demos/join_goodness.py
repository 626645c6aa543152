#!/usr/bin/env python3
# Joins multiply facets and shift homology: the join identity
# b_k(K*L) = sum over i+j=k-1 of b_i(K) * b_j(L) assembles the join's
# profile from the factors.  Joining the torus grid with itself produces a
# complex with comatching number 4 that is 5-good, hence not 5-Leray:
# bounded comatching number does not bound the Leray number by 3d - 1.

from comatch import (
    SearchBudget,
    complex_comatching_number,
    gen_good_join_complex,
    gen_torus_grid_complex,
    join_profile_from_factors,
    kunneth_betti_check,
    leray_check,
    leray_number,
    reduced_betti,
)

torus = gen_torus_grid_complex(4, 2)
profile = reduced_betti(torus).reduced_betti
print(f"torus grid profile: {profile}")

predicted = join_profile_from_factors(profile, profile)
print(f"predicted double-join profile: {predicted}")
print(f"  -> 5-good: nonzero in dim 5 ({predicted[5]}), zero above")

double = gen_good_join_complex(2)
print(f"\ndouble join: {double.num_vertices} vertices, {len(double.facets)} facets of size 8")

verdict = kunneth_betti_check(torus, torus, SearchBudget(max_millis=120_000))
print(f"direct homology of the join: {verdict.status}")
if verdict.direct is not None:
    print(f"  direct profile:    {verdict.direct}")
    print(f"  predicted profile: {verdict.predicted}")

tau, _, exact = complex_comatching_number(double, SearchBudget(max_millis=60_000))
print(f"comatching number of the join: {tau} (exact={exact}; factor bound 2 + 2)")

leray = leray_check(double, 5, SearchBudget(max_millis=60_000))
vertices, dim = leray.witness
print(f"5-Leray check: {leray.status} (witness: all {len(vertices)} vertices, homology dim {dim})")

# The links decide the Leray property with one homology per face, and a
# failing link yields its induced-subcomplex witness by descent.
number, exact, _ = leray_number(double, SearchBudget(max_millis=60_000))
print(f"Leray number of the join: {number} (exact={exact})")
