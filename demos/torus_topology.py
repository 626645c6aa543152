#!/usr/bin/env python3
# The 4x4 torus grid complex: 16 vertices, one facet per 2x2 subsquare.
# It is homotopy-equivalent to the torus, has complex comatching number 2,
# and is not 2-Leray, which separates "low comatching number" from
# "low Leray number".

from comatch import (
    SearchBudget,
    comatching_number,
    complex_comatching_number,
    complex_to_set_system,
    gen_torus_grid_complex,
    is_d_collapsible,
    leray_check,
    leray_number,
    nerve,
    reduced_betti,
)

torus = gen_torus_grid_complex(4, 2)
print(f"torus grid: {torus.num_vertices} vertices, {len(torus.facets)} facets, dim {torus.dim}")

profile = reduced_betti(torus)
print(f"reduced Betti numbers over the rationals: {profile.reduced_betti}")

tau_k, cert, _ = complex_comatching_number(torus)
print(f"complex comatching number: {tau_k}")
print(f"  witness pairs: {[(torus.vertices[v], sorted(torus.vertex_labels(torus.facets[f]))) for v, f in cert.pairs]}")

verdict = leray_check(torus, 2)
vertices, dim = verdict.witness
print(f"2-Leray check: {verdict.status} (induced subcomplex on {len(vertices)} vertices has homology in dim {dim})")

number, exact, witness = leray_number(torus)
print(f"Leray number (from the links; the complex itself is the witness): {number}, exact={exact}")
print(f"  witness: {witness.status} at d={witness.d}, homology in dim {witness.witness[1]} on {len(witness.witness[0])} vertices")

status, seq = is_d_collapsible(torus, 3, SearchBudget(max_nodes=100_000))
print(f"3-collapsibility: {status}" + (f" in {len(seq.steps)} steps" if seq else ""))

# A 2-collapsible complex is 2-Leray (Wegner, 1975), so the failing check
# above refutes 2-collapsibility with its witness, as `comatch collapse` does.
print(f"2-collapsibility: refuted (the 2-Leray witness: homology in dim {dim} on {len(vertices)} vertices)")

# The complex-to-system conversion inverts the nerve, label for label (the
# same vertices and the same facets), and keeps the comatching number at
# max(2, tau_K).
system = complex_to_set_system(torus)
back = nerve(system)
print(f"\nconverted system: {system.num_points} ground elements, {system.num_members} members")
print(f"nerve of conversion equals the torus grid label for label: {back.vertices == torus.vertices and set(back.facets) == set(torus.facets)}")
tau, _, _ = comatching_number(system)
print(f"comatching number of the converted system: {tau} (= max(2, {tau_k}))")
