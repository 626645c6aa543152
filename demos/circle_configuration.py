#!/usr/bin/env python3
# Four unit circles in the plane realizing a size-4 comatching: three are
# centered at the vertices of an equilateral triangle and pass through its
# center, the fourth circumscribes the triangle.  Each of the four marked
# points lies on exactly three circles, missing its partner.

from comatch import (
    comatching_number,
    comatching_with_intersection_number,
    gen_circle_config,
)

config, system = gen_circle_config()

print("circles (center, radius):")
for name, ((x, y), r) in zip(config.circle_names, config.circles):
    print(f"  {name:7s} ({x:+.6f}, {y:+.6f})  r = {r}")
print("points:")
for name, (x, y) in zip(config.point_names, config.points):
    print(f"  {name:7s} ({x:+.6f}, {y:+.6f})")

print("\nincidence pattern (rows: points, cols: circles):")
header = "          " + "  ".join(f"{n:>7s}" for n in config.circle_names)
print(header)
for i, pname in enumerate(config.point_names):
    row = "  ".join(
        f"{'on':>7s}" if config.incidence(i, j) else f"{'off':>7s}"
        for j in range(4)
    )
    print(f"  {pname:7s} {row}")

tau, cert, _ = comatching_number(system)
taup, cwi, _ = comatching_with_intersection_number(system)
print(f"\nabstract system: tau = {tau}, tau' = {taup}")
print("  every three circles share the fourth point, but no point is on all four,")
print("  so the with-intersection variant drops to 3.")
pairs = [(system.ground[p], system.member_name(j)) for p, j in cwi.base.pairs]
print(f"  tau' witness: {pairs} with common point {system.ground[cwi.common_point]}")
