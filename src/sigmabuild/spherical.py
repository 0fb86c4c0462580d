"""Finite thick spherical buildings of type A: flag complexes of F_q^n.

Vertices are proper non-zero subspaces in reduced row-echelon form, cells are
chains of subspaces, chambers are complete flags.  Flags grow from the top:
the hyperplanes of a d-space W are the products S·W mod q over the RREF
(d-1)-subspaces S of F_q^d, and S·W is already in RREF (W's pivots at S's
pivot columns, the others cleared by S's zeros), so a chamber costs one small
product and no elimination.

Opposition is one predicate, `FlagComplex.opposite_subspaces`: a k-space is
opposite a chamber's member of dimension n - k (the zero space at k = n) when
the two span F_q^n.  Opp(C), the frame test and the apartment search use it.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .chevalley import is_prime
from .complexes import simplicial_complex
from .linalg import matmul


class SphericalError(ValueError):
    pass


# --- F_q row echelon forms ---------------------------------------------------


def rref(rows, q):
    """Reduced row echelon form of integer rows mod q; returns a canonical tuple."""
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if work[i][c] % q != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, q)
        work[r] = [(e * inv) % q for e in work[r]]
        for i in range(m):
            if i != r and work[i][c] % q != 0:
                f = work[i][c]
                work[i] = [(e - f * wr) % q for e, wr in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def span_rank(rows, q):
    return len(rref(rows, q))


def all_subspaces(n, q, d):
    """All d-dimensional subspaces of F_q^n as canonical RREF tuples.

    Enumerates pivot-column patterns and free entries directly, which is the
    standard Gaussian-binomial count.
    """
    out = []
    for pivots in combinations(range(n), d):
        free_positions = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free_positions, values):
                rows[i][c] = v
            out.append(tuple(tuple(r) for r in rows))
    return sorted(out)


# --- the building -------------------------------------------------------------


# FlagComplex refuses more complete flags than this, the bound of a
# Bruhat-Tits truncation: (4, 5) has 29,016, (5, 3) has 251,680
MAX_FLAG_CHAMBERS = 10**5


class FlagComplex:
    """The flag complex of F_q^n with its chamber structure."""

    def __init__(self, n, q):
        if not is_prime(q):
            raise SphericalError("q must be prime in this realization")
        if n < 2:
            raise SphericalError("n must be at least 2")
        # complete flag count: prod over k of the number of hyperplanes of a k-space
        count = math.prod((q**k - 1) // (q - 1) for k in range(2, n + 1))
        if count > MAX_FLAG_CHAMBERS:
            raise SphericalError(f"chamber count {count:,} exceeds the guard of {MAX_FLAG_CHAMBERS:,}")
        self.n = n
        self.q = q
        self.subspaces = {d: all_subspaces(n, q, d) for d in range(1, n)}
        self.chambers = self._build_chambers()
        self._complex = None

    def _build_chambers(self):
        """Complete flags, each member a hyperplane S·W of the member W above it."""
        q = self.q
        flags = [(w,) for w in self.subspaces[self.n - 1]]
        for d in range(self.n - 1, 1, -1):
            hyperplanes = all_subspaces(d, q, d - 1)
            flags = [
                (tuple(tuple(x % q for x in row) for row in matmul(s, flag[0])),) + flag
                for flag in flags
                for s in hyperplanes
            ]
        return sorted(flags)

    def complex(self):
        if self._complex is None:
            faces = {f for flag in self.chambers for k in range(1, self.n) for f in combinations(flag, k)}
            self._complex = simplicial_complex(faces)
        return self._complex

    def thickness(self):
        """Min/max number of chambers per panel; q+1 at every panel for flags."""
        if self.n == 2:
            # rank-one building: chambers are points, the empty panel is shared
            return len(self.chambers), len(self.chambers)
        cx = self.complex()
        counts = Counter(p for c in cx.cells(self.n - 2) for p in cx.facets(c)).values()
        return min(counts), max(counts)

    # --- opposition ----------------------------------------------------

    def opposite_subspaces(self, a, b):
        """Subspaces of complementary dimension spanning the whole space."""
        if len(a) + len(b) != self.n:
            return False
        return span_rank(tuple(a) + tuple(b), self.q) == self.n

    def opposition_complex(self, chamber):
        """Opp(C): the full subcomplex on vertices complementary to the matching C-part."""
        n = self.n
        members = ((),) + chamber  # members[d]: the chamber's d-dimensional member
        good_vertices = {
            s for d in range(1, n) for s in self.subspaces[d] if self.opposite_subspaces(s, members[n - d])
        }
        cx = self.complex()
        return cx.restrict(cell for cell in cx.cells() if all(s in good_vertices for s in cell))


@dataclass
class SphericalApartment:
    """An apartment given by a frame of n independent lines."""

    frame: tuple  # n line subspaces
    chambers: tuple  # the n! flags built from the frame

    @property
    def chamber_count(self):
        return len(self.chambers)


def apartment_from_frame(building, frame):
    """The apartment spanned by a frame: flags of partial sums over orderings."""
    q = building.q
    chambers = set()
    for perm in permutations(frame):
        chain = []
        acc = ()
        for line in perm[:-1]:
            acc = rref(acc + line, q)
            chain.append(acc)
        chambers.add(tuple(chain))
    return SphericalApartment(tuple(sorted(frame)), tuple(sorted(chambers)))


def frame_is_opposite_chamber(building, frame, chamber):
    """Every chamber of the frame's apartment is opposite the chamber.

    Equivalent subset condition: each k-subset of the frame spans a complement
    of the (n-k)-dimensional member of the flag, for k = 1..n; at k = n the
    member is the zero space and the condition is that the frame is a basis.
    """
    n = building.n
    members = ((),) + chamber  # members[d]: the chamber's d-dimensional member
    return all(
        building.opposite_subspaces(sum(subset, ()), members[n - k])
        for k in range(1, n + 1)
        for subset in combinations(frame, k)
    )


def find_opposite_apartment(building, chamber):
    """Search for an apartment inside Opp(chamber).

    Returns (apartment_or_None, guaranteed) where `guaranteed` is the
    thickness criterion: thickness exceeding the number of chambers of an
    apartment forces existence.  The search itself is an exhaustive frame
    enumeration with pruning by partial-opposition failure, so a None answer
    is a proof of non-existence.  A new line must pass the subset condition of
    `frame_is_opposite_chamber` on every subset through it, which also keeps
    the frame independent.
    """
    n = building.n
    guaranteed = building.q + 1 > math.factorial(n)
    lines = building.subspaces[1]
    members = ((),) + chamber  # members[d]: the chamber's d-dimensional member

    def extend(frame, start):
        if len(frame) == n:
            return tuple(frame)
        for idx in range(start, len(lines)):
            line = lines[idx]
            if all(
                building.opposite_subspaces(sum(subset, line), members[n - k - 1])
                for k in range(len(frame) + 1)
                for subset in combinations(frame, k)
            ):
                out = extend(frame + [line], idx + 1)
                if out is not None:
                    return out
        return None

    frame = extend([], 0)
    if frame is None:
        return None, guaranteed
    apartment = apartment_from_frame(building, list(frame))
    if not frame_is_opposite_chamber(building, list(frame), chamber):
        raise SphericalError(f"frame {frame} is not opposite the chamber {chamber}")
    return apartment, guaranteed


def build_flag_building(n, q):
    return FlagComplex(n, q)
