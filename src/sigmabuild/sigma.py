"""Finiteness-type verdicts for S-arithmetic Borel subgroups.

Characters are coefficient vectors over the basis chi_{alpha,p} indexed by
(simple root, prime).  The forbidden region for the k-th invariant consists of
the classes with non-negative coefficients and support at most k; a character
avoiding the whole non-negative cone is unconditionally good, and the positive
statement for small support is conditional on the prime threshold (the
spherical-opposition thickness bound), below which the verdict is only
conjectural.

A subgroup cut out by the vanishing of a span W of characters is of type F_k
iff W has no non-zero non-negative vector of support at most k.  The least
such support is reached by an elementary vector of W (one of inclusion-minimal
support; Rockafellar 1969), so `minimal_bad_support` enumerates those: one
small fraction-free elimination per choice of r-1 zero coordinates, C(d, r-1)
in all for d = dim and r = dim W; a search of more than `MAX_SEARCH_PRODUCTS`
integer products is refused.  The search is integer throughout: the
generators are scaled once to integer rows, each candidate is the integer
combination of them given by an integer null vector, and supports are
compared on integers.  Only the winner, the non-negative candidate of least
support (ties going to the lexicographically first support), becomes
Fractions, scaled so its first non-zero coordinate is 1.

Coefficients are exact: ints and Fractions.  A float is refused, since its
binary expansion is not the decimal it was written as.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import mul

from .chevalley import is_prime
from .linalg import integer_null_space, scaled


class SigmaError(ValueError):
    pass


# minimal_bad_support gives up past this many integer products: C(d, r-1)
# candidates, each an elimination of about r^3 and a combination of r d.
# Every span in dimension 16 is admitted; rank 10 takes the most, 13,270,400
MAX_SEARCH_PRODUCTS = 14_000_000

CERTAIN_IN = "certain-in"
CERTAIN_OUT = "certain-out"
CONJECTURAL_IN = "conjectural-in"


def prime_threshold(family, rank):
    """Smallest prime size for which the positive direction is unconditional.

    It is the thickness bound for the spherical opposition complexes at every
    link, q + 1 >= 2^(l-1) + 1 in type A_l: p >= 2^(l-1), equivalently
    2^(n-2) for SL_n.  Types C_l and D_l need p >= 2^(2l-1).  The exceptional
    C_3 buildings are excluded by hypothesis; none are realized here.
    """
    if rank < 1:
        raise SigmaError("rank must be positive")
    if family == "A":
        return 2 ** (rank - 1)
    if family in ("C", "D"):
        return 2 ** (2 * rank - 1)
    raise SigmaError(f"unsupported family {family!r}")


@dataclass(frozen=True)
class SigmaContext:
    """Family/rank of the root system and the prime set."""

    family: str
    rank: int
    primes: tuple

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(sorted(set(self.primes))))
        if self.rank < 1:
            raise SigmaError("rank must be positive")
        if not self.primes:
            raise SigmaError("need at least one prime")
        for p in self.primes:
            if not is_prime(p):
                raise SigmaError(f"{p} is not a prime")

    @property
    def dim(self):
        return self.rank * len(self.primes)

    @property
    def sol(self):
        """Whether every prime meets the unconditional threshold."""
        t = prime_threshold(self.family, self.rank)
        return all(p >= t for p in self.primes)

    @classmethod
    def for_sl(cls, n, primes):
        """Context of the Borel subgroup of SL_n (root system A_{n-1})."""
        return cls("A", n - 1, tuple(primes))


@dataclass(frozen=True)
class Verdict:
    kind: str  # certain-in | certain-out | conjectural-in
    justification: str
    witness: tuple = None

    @property
    def certain(self):
        return self.kind != CONJECTURAL_IN


def _as_vector(ctx, chi):
    """The ctx.dim coefficients of chi as ints and Fractions; a float is refused."""
    if len(chi) != ctx.dim:
        raise SigmaError(
            f"character vector has length {len(chi)}, expected {ctx.dim}"
        )
    if any(isinstance(c, float) for c in chi):
        raise SigmaError(f"float coefficient in {tuple(chi)}: coefficients must be exact")
    return tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in chi)


def in_delta_k(ctx, chi, k):
    """Non-negative coefficients with at most k of them non-zero."""
    v = _as_vector(ctx, chi)
    if all(c == 0 for c in v):
        raise SigmaError("the zero vector has no class on the character sphere")
    if any(c < 0 for c in v):
        return False
    return sum(1 for c in v if c != 0) <= k


def _threshold_verdict(ctx, reason, witness=None):
    """The verdict of a class outside the forbidden cone but inside the
    non-negative one: certain-in when the primes meet the threshold,
    conjectural-in otherwise."""
    if ctx.sol:
        return Verdict(CERTAIN_IN, f"{reason}; prime threshold met", witness=witness)
    return Verdict(CONJECTURAL_IN, f"{reason}; prime threshold not met", witness=witness)


def sigma_verdict(ctx, chi, k):
    """Membership of the character class in the k-th invariant.

    certain-out: the class lies in the forbidden support-k cone.
    certain-in: some coefficient is negative (good in every degree), or the
    support exceeds k and the primes meet the threshold.
    conjectural-in: support exceeds k but the primes are small.
    """
    inside = in_delta_k(ctx, chi, k)  # checks chi: length, exact entries, not zero
    v = tuple(map(Fraction, chi))
    if inside:
        return Verdict(CERTAIN_OUT, "support-k cone obstruction", witness=v)
    if any(c < 0 for c in v):
        return Verdict(CERTAIN_IN, "mixed signs: outside the non-negative cone")
    return _threshold_verdict(ctx, "support exceeds k")


def minimal_bad_support(ctx, generators):
    """(support, vector): the least support of a non-zero non-negative vector
    of the span and that vector, or (None, None) if there is none.

    Such a vector is elementary: no non-zero vector of the span W has its
    support strictly inside that support (subtracting a multiple of one would
    leave a non-negative vector of smaller support).  With r = dim W, every
    elementary vector is, up to scale, the unique vector of W vanishing on
    some r-1 coordinates whose columns have rank r-1, so it suffices to try
    the C(d, r-1) sets of zeros.

    One elimination picks a basis among the generators (the pivot columns of
    the matrix whose columns they are), scaled once to integer rows B.  The
    candidate of a zero set is lam . B for the integer null vector lam of
    those columns of B; up to sign it is non-negative unless it has entries
    of both signs.  Ties in support size go to the lexicographically first
    support tuple; the winner is scaled so its first non-zero coordinate is
    1, which makes it unique.
    """
    gens = [_as_vector(ctx, g) for g in generators]
    if not gens:
        return None, None
    picked, _ = integer_null_space(tuple(zip(*gens)))
    if not picked:
        return None, None
    d, r = ctx.dim, len(picked)
    products = comb(d, r - 1) * r * (r * r + d)
    if products > MAX_SEARCH_PRODUCTS:
        raise SigmaError(
            f"the search over a span of rank {r} in dimension {d} takes about "
            f"{products:,} products, more than {MAX_SEARCH_PRODUCTS:,}"
        )
    nums, _ = scaled(chain.from_iterable(gens[j] for j in picked))
    cols = [nums[i::d] for i in range(d)]  # cols[i][j] = B[j][i]
    best_key, best = None, None
    for zeros in combinations(range(d), r - 1):
        if zeros:
            _, null = integer_null_space([cols[i] for i in zeros])
            if len(null) != 1:
                continue
            (lam,) = null
        else:
            lam = (1,)
        x = [sum(map(mul, lam, col)) for col in cols]
        if min(x) < 0 < max(x):
            continue
        support = tuple(i for i, c in enumerate(x) if c)
        key = (len(support), support)
        if best_key is None or key < best_key:
            best_key, best = key, x
    if best is None:
        return None, None
    # unique: two non-proportional non-negative vectors of least support
    # would combine into a non-negative one of smaller support
    lead = best[best_key[1][0]]
    return best_key[0], tuple(Fraction(c, lead) for c in best)


def finiteness_type(ctx, generators, k):
    """Is the subgroup cut out by the given vanishing characters of type F_k?

    `generators` span the space W of characters vanishing on the subgroup
    (which must contain the full unipotent subgroup).  The subgroup is of type
    F_k iff no class of W lies in the forbidden support-k cone; the positive
    direction is conditional on the prime threshold.
    """
    support, witness = minimal_bad_support(ctx, generators)
    if support is None:
        return Verdict(CERTAIN_IN, "no non-negative direction vanishes: type F-infinity")
    if support <= k:
        return Verdict(
            CERTAIN_OUT,
            f"vanishing character with non-negative support {support}",
            witness=witness,
        )
    return _threshold_verdict(ctx, f"least bad support is {support} > k", witness)


def verdict_json(verdict):
    from .linalg import fraction_str

    out = {"kind": verdict.kind, "justification": verdict.justification}
    if verdict.witness is not None:
        out["witness"] = [fraction_str(c) for c in verdict.witness]
    return out
