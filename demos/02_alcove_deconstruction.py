"""Deconstructing a sigma-convex subcomplex chamber by chamber.

Takes the corner of a sector in an A_2 alcove window, checks sigma-convexity
by one search over sigma-steps, and peels off one chamber of sigma-length
zero at a time, certifying at each step that the removed star sits inside the
closed chamber and that the residual boundary R(Z) never changes.
"""

from sigmabuild.coxeter import AlcoveGeometry
from sigmabuild.root_system import build_root_system
from sigmabuild.windows import (
    Window,
    closed_sector_cells,
    deconstruct,
    sigma_convex_check,
)

datum = build_root_system("A", 2)
geometry = AlcoveGeometry(datum)
window = Window.radius(datum, 3, geometry)
sigma = geometry.base_chamber_at_infinity()

corner = closed_sector_cells(window, datum.zero(), sigma.opposite())
print(f"sector corner inside the window: {len(corner)} cells, "
      f"{sum(1 for c in corner if geometry.is_chamber(c))} chambers")

ok, witness = sigma_convex_check(geometry, corner, sigma)
print("sigma-convex:", ok)

result = deconstruct(geometry, corner, sigma)
print(f"filtration length {len(result.filtration)}, "
      f"residual R(Z) has {len(result.residual)} cells")
for i, step in enumerate(result.steps, 1):
    flags = "".join("+" if v else "-" for v in step.certificates.values())
    print(f"  step {i:2d}: add chamber {step.chamber}  certificates {flags}")

print("\nA gap breaks convexity and the checker returns a witness gallery:")
gap = set(corner)
victim = sorted(c for c in corner if geometry.is_chamber(c))[2]
gap -= {x for x in gap if victim in geometry.closure(x) or x == victim}
ok, witness = sigma_convex_check(geometry, frozenset(gap), sigma)
print("sigma-convex:", ok)
if witness:
    print("witness gallery through the missing chamber:")
    for c in witness:
        print("   ", c)
