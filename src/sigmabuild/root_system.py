"""Exact root-system and affine Weyl arithmetic for the classical families A, C, D.

Points of the ambient Euclidean space are stored in *simple-root coordinates*:
a vector x = (x_1, ..., x_l) stands for sum x_i alpha_i, and the inner product
kappa is realized by the Gram matrix of the simple roots.  This keeps every
pairing an exact rational (integral on roots) with no radicals.  Only the
simple roots are written in the familiar epsilon coordinates (sum-zero for
A_l, orthonormal for C_l/D_l, short roots of squared length 2), for the Gram
matrix, which is integral, and for display; every root is an integer
coefficient tuple, found from the integer Cartan matrix by simple
reflections, and every pairing <beta, alpha^V> of roots an integer read
from G alpha.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .linalg import Q0, dot, inverse, matvec, vec


class RootSystemError(ValueError):
    pass


# Per family: its minimum rank, and for rank l the ambient dimension and the
# last simple root as {coordinate: entry}; the others are e_i - e_{i+1}.
_FAMILIES = {
    "A": (1, lambda l: (l + 1, {l - 1: 1, l: -1})),
    "C": (2, lambda l: (l, {l - 1: 2})),
    "D": (3, lambda l: (l, {l - 2: 1, l - 1: 1})),
}


def _ambient_simple_roots(family, rank):
    dim, last = _FAMILIES[family][1](rank)
    rows = [[0] * dim for _ in range(rank)]
    for i in range(rank - 1):
        rows[i][i], rows[i][i + 1] = 1, -1
    for j, e in last.items():
        rows[-1][j] = e
    return tuple(map(tuple, rows))


def _positive_roots(simples, cartan):
    """The simple roots closed under the simple reflections, positive images only.

    s_j(b) = b - <b, alpha_j^V> alpha_j changes only the j-th coefficient, by
    sum_i b_i <alpha_i, alpha_j^V> (Humphreys 1972, section 10.2).  Integer
    coefficient tuples sorted by height, then lexicographically: simple roots
    come first.
    """
    found = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for b in frontier:
            for j in range(len(b)):
                img = b[:j] + (b[j] - sum(c * row[j] for c, row in zip(b, cartan)),) + b[j + 1:]
                if min(img) >= 0 and img not in found:
                    found.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(found, key=lambda c: (sum(c), c)))


@dataclass(frozen=True)
class AffineHyperplane:
    """The wall kappa(., alpha) = k, stored with alpha a positive root.

    H_{alpha,k} and H_{-alpha,-k} are the same wall; the constructor
    normalizes to the positive-root representative.
    """

    root: tuple  # coefficients over the simple roots, positive
    level: Fraction

    @staticmethod
    def make(datum, root_coeffs, level):
        root_coeffs = tuple(root_coeffs)
        level = Fraction(level)
        if root_coeffs in datum.positive_root_set:
            return AffineHyperplane(root_coeffs, level)
        neg = tuple(-c for c in root_coeffs)
        if neg in datum.positive_root_set:
            return AffineHyperplane(neg, -level)
        raise RootSystemError(f"{root_coeffs} is not a root")


class RootDatum:
    """Immutable root-system data; all operations on it are pure functions."""

    def __init__(self, family, rank):
        if family not in _FAMILIES:
            raise RootSystemError(f"unsupported family {family!r}; expected one of A, C, D")
        if rank < 1:
            raise RootSystemError("rank must be a positive integer")
        if rank < _FAMILIES[family][0]:
            raise RootSystemError(f"family {family} needs rank >= {_FAMILIES[family][0]}")
        self.family = family
        self.rank = rank
        self.ambient_simple_roots = _ambient_simple_roots(family, rank)
        self.ambient_dim = len(self.ambient_simple_roots[0])
        # integer Gram matrix of the simple roots under the standard inner product
        self.gram = tuple(
            tuple(sum(map(mul, a, b)) for b in self.ambient_simple_roots) for a in self.ambient_simple_roots
        )
        self.simple_root_coeffs = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        # Cartan integers <alpha_i, alpha_j^V>: row i against column j
        self._cartan = tuple(zip(*self.pairings(self.simple_root_coeffs, self.simple_root_coeffs)))
        pos = _positive_roots(self.simple_root_coeffs, self._cartan)
        self.positive_roots = pos
        self.positive_root_set = frozenset(pos)
        self.all_roots = pos + tuple(tuple(-x for x in c) for c in pos)
        self.root_set = frozenset(self.all_roots)
        self.highest_root = pos[-1]
        self.pos_index = {r: i for i, r in enumerate(pos)}
        # fundamental coweight directions: kappa(w_i, alpha_j) = delta_ij
        self.coweight_dirs = inverse(self.gram)

    # --- coordinates ---------------------------------------------------

    def point(self, values):
        """The point x with kappa(x, alpha_i) = values[i] for each simple root (G^-1 v)."""
        return matvec(self.coweight_dirs, vec(values))

    def ambient(self, coords):
        """Ambient vector of a point given in simple-root coordinates."""
        out = [Q0] * self.ambient_dim
        for c, a in zip(coords, self.ambient_simple_roots):
            for i, e in enumerate(a):
                out[i] += c * e
        return tuple(out)

    def kappa(self, x, y):
        """Inner product of two points in simple-root coordinates."""
        return dot(x, matvec(self.gram, y))

    def norm2(self, root_coeffs):
        return self.kappa(root_coeffs, root_coeffs)

    def coroot(self, root_coeffs):
        """alpha^V = 2 alpha / kappa(alpha, alpha), in simple-root coordinates."""
        n2 = self.norm2(root_coeffs)
        return tuple(2 * c / n2 for c in root_coeffs)

    def is_root(self, coeffs):
        return tuple(coeffs) in self.root_set

    def zero(self):
        return tuple(Q0 for _ in range(self.rank))

    def cartan_matrix(self):
        """Matrix of the integer pairings <alpha_i, alpha_j^V> (row i against column j)."""
        return self._cartan

    def pairings(self, alphas, betas):
        """The integers <beta, alpha^V> = 2 kappa(beta, alpha) / kappa(alpha, alpha)
        of roots, one row per alpha over the betas, each read from G alpha."""
        rows = []
        for a in alphas:
            ga = [sum(map(mul, row, a)) for row in self.gram]
            n2 = sum(map(mul, a, ga))
            rows.append(tuple(2 * sum(map(mul, b, ga)) // n2 for b in betas))
        return tuple(rows)


def build_root_system(family, rank):
    """Construct the root datum for the given classical family and rank."""
    return RootDatum(family, int(rank))


def cartan_pairing(datum, beta, alpha):
    """<beta, alpha^V> = 2 kappa(beta, alpha) / kappa(alpha, alpha), an integer.

    Normalized by the second argument: the Cartan integer of the root beta
    against the root alpha.
    """
    for root in (alpha, beta):
        if not datum.is_root(root):
            raise RootSystemError(f"{tuple(root)} is not a root")
    return datum.pairings((alpha,), (beta,))[0][0]


def affine_reflect(datum, hyperplane, v):
    """Reflection through H_{alpha,k}: v -> s_alpha(v) + k alpha^V."""
    alpha = hyperplane.root
    av = datum.coroot(alpha)
    t = datum.kappa(v, alpha) - hyperplane.level
    return tuple(x - t * c for x, c in zip(v, av))


def translation_action(datum, alpha, k, v):
    """The translation v -> v - k alpha^V (composition s_{-alpha,k} s_alpha)."""
    alpha = tuple(alpha)
    if not datum.is_root(alpha):
        raise RootSystemError(f"{alpha} is not a root")
    av = datum.coroot(alpha)
    return tuple(x - Fraction(k) * c for x, c in zip(v, av))


def rootsys_json(datum):
    """JSON-ready description: roots, coroots, Gram and Cartan matrices."""
    from .linalg import fraction_str

    def fvec(v):
        return [fraction_str(x) for x in v]

    return {
        "family": datum.family,
        "rank": datum.rank,
        "ambient_dim": datum.ambient_dim,
        "simple_roots": [fvec(datum.ambient(c)) for c in datum.simple_root_coeffs],
        "positive_roots": [fvec(datum.ambient(c)) for c in datum.positive_roots],
        "highest_root": fvec(datum.ambient(datum.highest_root)),
        "coroots": {
            str(i): fvec(datum.ambient(datum.coroot(c)))
            for i, c in enumerate(datum.positive_roots)
        },
        "gram": [fvec(row) for row in datum.gram],
        "cartan_matrix": [fvec(row) for row in datum.cartan_matrix()],
        "root_count": len(datum.all_roots),
    }
