"""Finite thick spherical buildings of type A: flag complexes of F_q^n.

Vertices are proper non-zero subspaces in reduced row-echelon form, cells are
chains of subspaces, chambers are complete flags.  Opposition is the
complementary-flag criterion: a flag is opposite a face of the chamber C when
each member is a direct complement of the C-member of complementary dimension.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .chevalley import is_prime
from .complexes import CellComplex


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


def subspace_contains(big, small, q):
    """Whether span(big) contains span(small)."""
    return span_rank(tuple(big) + tuple(small), q) == len(big)


def all_subspaces(n, q, d):
    """All d-dimensional subspaces of F_q^n as canonical RREF tuples.

    Enumerates pivot-column patterns and free entries directly, which is the
    standard Gaussian-binomial count.
    """
    out = []
    for pivots in combinations(range(n), d):
        free_positions = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots[i + 1:]:
                    if c not in pivots:
                        free_positions.append((i, c))
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free_positions, values):
                rows[i][c] = v
            out.append(tuple(tuple(r) for r in rows))
    return sorted(out)


# --- the building -------------------------------------------------------------


class FlagComplex:
    """The flag complex of F_q^n with its chamber structure."""

    def __init__(self, n, q, max_chambers=10**7):
        if not is_prime(q):
            raise SphericalError("q must be prime in this realization")
        if n < 2:
            raise SphericalError("n must be at least 2")
        # complete flag count: prod over k of the number of (k+1)-spaces over a k-space
        count = 1
        for k in range(2, n + 1):
            count *= (q**k - 1) // (q - 1)
        if count > max_chambers:
            raise SphericalError(f"chamber count {count} exceeds the guard")
        self.n = n
        self.q = q
        self.subspaces = {d: all_subspaces(n, q, d) for d in range(1, n)}
        self.chambers = self._build_chambers()
        self._complex = None

    def _build_chambers(self):
        chains = [(s,) for s in self.subspaces[1]]
        for d in range(2, self.n):
            nxt = []
            for chain in chains:
                for s in self.subspaces[d]:
                    if subspace_contains(s, chain[-1], self.q):
                        nxt.append(chain + (s,))
            chains = nxt
        return sorted(chains)

    def complex(self):
        if self._complex is not None:
            return self._complex
        cx = CellComplex()
        for chain in self.chambers:
            cells = self._subchains(chain)
            for cell in cells:
                facets = [cell[:i] + cell[i + 1:] for i in range(len(cell)) if len(cell) > 1]
                cx.add_cell(cell, len(cell) - 1, facets)
        self._complex = cx.freeze()
        return self._complex

    @staticmethod
    def _subchains(chain):
        out = []
        m = len(chain)
        for mask in range(1, 1 << m):
            out.append(tuple(chain[i] for i in range(m) if mask >> i & 1))
        return out

    def thickness(self):
        """Min/max number of chambers per panel; q+1 at every panel for flags."""
        cx = self.complex()
        counts = [len(cx.cofacets(p)) for p in cx.cells(self.n - 3)] if self.n > 2 else None
        if self.n == 2:
            # rank-one building: chambers are points, the empty panel is shared
            return len(self.chambers), len(self.chambers)
        return min(counts), max(counts)

    # --- opposition ----------------------------------------------------

    def opposite_subspaces(self, a, b):
        """Subspaces of complementary dimension spanning the whole space."""
        if len(a) + len(b) != self.n:
            return False
        return span_rank(tuple(a) + tuple(b), self.q) == self.n

    def opposition_complex(self, chamber):
        """Opp(C): the full subcomplex on vertices complementary to the matching C-part."""
        good_vertices = set()
        for d in range(1, self.n):
            c_part = chamber[self.n - d - 1]
            for s in self.subspaces[d]:
                if self.opposite_subspaces(s, c_part):
                    good_vertices.add(s)
        cx = self.complex()
        keep = [
            cell
            for cell in cx.cells()
            if all(s in good_vertices for s in cell)
        ]
        return cx.restrict(keep)


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
    of the (n-k)-dimensional member of the flag.
    """
    n, q = building.n, building.q
    for k in range(1, n):
        c_part = chamber[n - k - 1]
        for subset in combinations(frame, k):
            rows = sum(subset, ())
            if span_rank(rows + c_part, q) != n:
                return False
    return True


def find_opposite_apartment(building, chamber):
    """Search for an apartment inside Opp(chamber).

    Returns (apartment_or_None, guaranteed) where `guaranteed` is the
    thickness criterion: thickness exceeding the number of chambers of an
    apartment forces existence.  The search itself is an exhaustive frame
    enumeration with pruning by partial-opposition failure, so a None answer
    is a proof of non-existence.
    """
    n, q = building.n, building.q
    th = q + 1
    import math

    guaranteed = th > math.factorial(n)
    lines = building.subspaces[1]

    def extend(frame, start):
        k = len(frame)
        if k == n:
            return tuple(frame)
        for idx in range(start, len(lines)):
            line = lines[idx]
            rows = sum(frame, ()) + line
            if span_rank(rows, q) != k + 1:
                continue
            ok = True
            for kk in range(1, k + 2):
                c_part = chamber[n - kk - 1]
                for subset in combinations(frame + [line], kk):
                    if line not in subset:
                        continue  # previously checked
                    if span_rank(sum(subset, ()) + c_part, q) != n:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
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


def build_flag_building(n, q, max_chambers=10**7):
    return FlagComplex(n, q, max_chambers)
