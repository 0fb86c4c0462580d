"""The Bruhat-Tits tree of SL_2(Q_2): retraction, heights, and the cone chain.

Grows a ball of the tree in the lattice-class model, reads the retraction
from infinity straight off the Hermite forms, and then builds the obstruction
chain of the negative-direction certificate: a 1-chain over two opposite
sectors whose boundary is a 0-cycle living in a thin height band that does
not bound above its lowest chamber.
"""

from fractions import Fraction

from sigmabuild.building import cone_chain, grow_truncation, superlevel_complex
from sigmabuild.chevalley import identity_element, x_elem
from sigmabuild.homology import bounds, induced_map_trivial
from sigmabuild.windows import HeightForm

p = 2
trunc = grow_truncation(2, p, 6)
print(f"tree ball of radius 6 at p = {p}: {len(trunc.chambers)} edges, "
      f"{len(trunc.complex.cells(0))} vertices")

fibers = {}
for cell in trunc.complex.cells(0):
    (v,) = cell
    (val,) = trunc.root_values(v)
    fibers[val] = fibers.get(val, 0) + 1
print("retraction fiber sizes per apartment position (kappa value):")
for val in sorted(fibers, reverse=True):
    print(f"  kappa = {str(val):>3s}: {fibers[val]} vertices")

# h = -kappa(., alpha_1): generic, it falls toward the chamber at infinity
h = HeightForm((Fraction(-1),))
cc = cone_chain(trunc, [identity_element(2), x_elem(2, (1,), 1)], h, 4)
print(f"\ncone chain below level 4: {len(cc.chain.support)} edges over two sectors")
print(f"boundary support: {len(cc.boundary.support)} vertices, "
      f"heights in band [{cc.band[0]}, {cc.band[1]}]")

small = superlevel_complex(trunc, h, 3)
big = superlevel_complex(trunc, h, 1)
bounding = bounds(big, cc.boundary)
trivial, witness = induced_map_trivial(small, big, 0)
print(f"boundary bounds in the deeper superlevel complex: {bounding}")
print(f"induced map on reduced H_0 trivial: {trivial} "
      f"(witness cycle of size {len(witness.support) if witness else 0})")
