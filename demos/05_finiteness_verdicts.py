"""Finiteness verdicts for subgroups of upper-triangular S-arithmetic groups.

Three worked examples in SL_3.  A subgroup containing the unipotent radical
is cut out by the characters vanishing on it; its finiteness type is decided
by whether that span meets the non-negative coordinate cone, and in which
support.
"""

from sigmabuild.chevalley import GroupElement
from sigmabuild.sigma import SigmaContext, character_eval, finiteness_type, sigma_verdict

# the group of matrices diag(p^k, 1, p^-k) * unipotent: kernel of chi_1 - chi_2
ctx = SigmaContext.for_sl(3, (5,))
v = finiteness_type(ctx, [(1, -1)], 100)
print("kernel of chi_{1,p} - chi_{2,p}:", v.kind, "--", v.justification)

# evaluating the character on an actual matrix
g = GroupElement([[5, 1, 0], [0, 1, 7], [0, 0, "1/5"]])
print("  chi on diag(5, 1, 1/5) pattern:", character_eval(ctx, (1, -1), g))

# the two-prime example: support 4, all positive
ctx2 = SigmaContext.for_sl(3, (2, 3))
chi2 = (1, 1, 1, 3)
for k in (4, 3):
    v = finiteness_type(ctx2, [chi2], k)
    print(f"kernel of chi_1p + chi_2p + chi_1q + 3 chi_2q, F_{k}:", v.kind)

# the all-ones character: not F_{|S|(n-1)} but F_{|S|(n-1)-1}
ones = (1, 1, 1, 1)
print("all-ones kernel, F_4:", finiteness_type(ctx2, [ones], 4).kind)
print("all-ones kernel, F_3:", finiteness_type(ctx2, [ones], 3).kind)

# single-character membership, including the conjectural branch at small primes
ctx5 = SigmaContext.for_sl(5, (3,))
print("\nSL_5 at p = 3 (below the threshold 8):")
for k in (2, 1):
    v = sigma_verdict(ctx5, (1, 2, 0, 0), k)
    print(f"  support-2 positive class, k = {k}: {v.kind} -- {v.justification}")
