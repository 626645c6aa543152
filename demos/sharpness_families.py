#!/usr/bin/env python3
# Walk through the cyclic sharpness systems: families built from domino
# complements on a cycle of 2M points.  For M <= 4 their colorful Helly
# number is M+1 while the comatching-with-intersection number is M, so the
# +1 in eta <= 1 + tau' cannot be dropped.

from comatch import (
    ColorfulInstance,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    gen_cycle_sharpness,
    helly_number,
    minimal_empty_subfamilies,
)

for m in (2, 3, 4):
    system = gen_cycle_sharpness(m)
    print(f"=== M = {m}: {system.num_points} points, {system.num_members} members")
    for name, elems in system.members:
        print(f"  {name} = {sorted(system.ground[i] for i in elems)}")

    tau, tau_cert, _ = comatching_number(system)
    taup, _, _ = comatching_with_intersection_number(system)
    h = helly_number(system)
    eta, _, refuting = colorful_helly_number(system)
    print(f"  comatching number tau       = {tau}")
    print(f"  with-intersection tau'      = {taup}")
    print(f"  Helly number h              = {h}")
    print(f"  colorful Helly number eta   = {eta}  (= 1 + tau', the bound is tight)")
    print(f"  largest comatching: {[(system.ground[p], system.member_name(j)) for p, j in tau_cert.pairs]}")

    # The refuting instance shows eta > eta - 1: no transversal of these
    # subfamilies has empty intersection.
    families = [sorted(system.member_name(j) for j in fam) for fam in refuting.families]
    print(f"  refuting {eta - 1}-instance: {families}")

    outcome = colorful_transversal_dichotomy(system, refuting)
    witness = outcome.witness
    print(
        "  dichotomy on it returns the witness arm: pairs "
        f"{[(system.ground[p], system.member_name(j)) for p, j in witness.base.pairs]}"
        f" with common point {system.ground[witness.common_point]}"
    )

    # One more subfamily makes an empty transversal unavoidable.
    padded = ColorfulInstance(refuting.families + (refuting.families[0],))
    if len(minimal_empty_subfamilies(system)) > 1:
        outcome = colorful_transversal_dichotomy(system, padded)
        if outcome.is_transversal:
            chosen = [system.member_name(j) for j in outcome.transversal]
            print(f"  at {eta} positions the dichotomy finds the empty transversal {chosen}")
    print()
