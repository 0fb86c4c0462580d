"""Opposition complexes in finite flag buildings.

The flag building of F_2^3 is the incidence graph of the Fano plane.  For
every chamber, the subcomplex opposite to it is connected but carries a
non-trivial 1-cycle over F_2: spherical, not contractible.  At q = 7 the
thickness exceeds the six chambers of an apartment, so an apartment opposite
any chamber must exist; the pruned frame search finds one.
"""

from sigmabuild.homology import betti_vector
from sigmabuild.spherical import FlagComplex, find_opposite_apartment

fano = FlagComplex(3, 2)
print(f"Fano flag building: {len(fano.subspaces[1])} points, "
      f"{len(fano.subspaces[2])} lines, {len(fano.chambers)} chambers")
print("thickness (min, max):", fano.thickness())

betti_profile = {}
for chamber in fano.chambers:
    bv = tuple(betti_vector(fano.opposition_complex(chamber)))
    betti_profile[bv] = betti_profile.get(bv, 0) + 1
for bv, count in sorted(betti_profile.items()):
    print(f"opposition complex reduced Betti numbers {bv}: {count} chambers")

print("\nopposite apartments:")
for q in (2, 7):
    b = FlagComplex(3, q)
    ap, guaranteed = find_opposite_apartment(b, b.chambers[0])
    print(f"  q = {q}: thickness {q + 1}, apartment chambers 6, "
          f"guaranteed = {guaranteed}, found = {ap is not None}")
