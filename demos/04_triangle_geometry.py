"""The triangle the paths fill is flat, right-angled and isosceles.

All comparisons are exact integer arithmetic on squared lengths; nothing
here depends on floating-point tolerances.
"""

from dyck4d import (SIDES, dot, side_length,
                    side_length_squared, triangle, verify_flat,
                    verify_right_isosceles)

n = 6
tri = triangle(n)
print(f"n = {n}")
print(f"origin {tuple(tri.vertex_origin)}, end {tuple(tri.vertex_end)}, "
      f"apex {tuple(tri.vertex_apex)}")

for side in SIDES:
    squared = side_length_squared(side, n)
    print(f"{side:>6} side: length² = {squared} (exact), length = {side_length(side, n):.6f}")

report = verify_right_isosceles(n)
print(f"\ndirection vectors at the apex: {tuple(report.direction_ab)} and "
      f"{tuple(report.direction_bc)}")
print(f"their scalar product: {dot(report.direction_ab, report.direction_bc)}")
print(f"right angle: {report.right_angle}, isosceles: {report.isosceles}, "
      f"pythagoras 108 + 108 = 216: {report.pythagoras}")

flat = verify_flat(n)
print(f"\nall {(n + 1) * (n + 2) // 2} reachable nodes lie in one 2-plane: {flat.flat}")
bad = verify_flat([(1, 1, 1, 1)])
print(f"a perturbed point fails with witness: {tuple(bad.witness)}")
