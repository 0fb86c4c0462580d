"""Exact root-system and affine Weyl arithmetic for the classical families A, C, D.

Points of the ambient Euclidean space are stored in *simple-root coordinates*:
a vector x = (x_1, ..., x_l) stands for sum x_i alpha_i, and the inner product
kappa is realized by the Gram matrix of the simple roots.  This keeps every
pairing an exact rational (integral on roots) with no radicals.  The familiar
epsilon-coordinate realizations (sum-zero coordinates for A_l, orthonormal
coordinates for C_l/D_l, short roots of squared length 2) are kept alongside
for display and serialization.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Q0, Q1, dot, inverse, matvec, vec


class RootSystemError(ValueError):
    pass


def _ambient_simple_roots(family, rank):
    if family == "A":
        dim = rank + 1
        simples = []
        for i in range(rank):
            v = [Q0] * dim
            v[i], v[i + 1] = Q1, -Q1
            simples.append(tuple(v))
        return simples
    if family == "C":
        dim = rank
        simples = []
        for i in range(rank - 1):
            v = [Q0] * dim
            v[i], v[i + 1] = Q1, -Q1
            simples.append(tuple(v))
        v = [Q0] * dim
        v[rank - 1] = Fraction(2)
        simples.append(tuple(v))
        return simples
    if family == "D":
        dim = rank
        simples = []
        for i in range(rank - 1):
            v = [Q0] * dim
            v[i], v[i + 1] = Q1, -Q1
            simples.append(tuple(v))
        v = [Q0] * dim
        v[rank - 2], v[rank - 1] = Q1, Q1
        simples.append(tuple(v))
        return simples
    raise RootSystemError(f"unsupported family {family!r}; expected one of A, C, D")


def _ambient_positive_roots(family, rank):
    """Positive roots as ambient vectors, in the standard realizations."""
    roots = []
    if family == "A":
        dim = rank + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [Q0] * dim
                v[i], v[j] = Q1, -Q1
                roots.append(tuple(v))
    elif family == "C":
        for i in range(rank):
            for j in range(i + 1, rank):
                for s in (Q1, -Q1):
                    v = [Q0] * rank
                    v[i], v[j] = Q1, s
                    roots.append(tuple(v))
        for i in range(rank):
            v = [Q0] * rank
            v[i] = Fraction(2)
            roots.append(tuple(v))
    elif family == "D":
        for i in range(rank):
            for j in range(i + 1, rank):
                for s in (Q1, -Q1):
                    v = [Q0] * rank
                    v[i], v[j] = Q1, s
                    roots.append(tuple(v))
    return roots


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
        if family not in ("A", "C", "D"):
            raise RootSystemError(f"unsupported family {family!r}; expected one of A, C, D")
        if rank < 1:
            raise RootSystemError("rank must be a positive integer")
        if family == "C" and rank < 2:
            raise RootSystemError("family C needs rank >= 2")
        if family == "D" and rank < 3:
            raise RootSystemError("family D needs rank >= 3")
        self.family = family
        self.rank = rank
        self.ambient_simple_roots = tuple(_ambient_simple_roots(family, rank))
        self.ambient_dim = len(self.ambient_simple_roots[0])
        # Gram matrix of the simple roots under the standard inner product.
        self.gram = tuple(
            tuple(dot(a, b) for b in self.ambient_simple_roots) for a in self.ambient_simple_roots
        )
        self._gram_inv = inverse(self.gram)

        ambient_pos = _ambient_positive_roots(family, rank)
        pos = [self._root_coords(v) for v in ambient_pos]
        # sort by height, then lexicographically: simple roots come first
        pos.sort(key=lambda c: (sum(c), c))
        self.positive_roots = tuple(pos)
        self.positive_root_set = frozenset(pos)
        self.all_roots = self.positive_roots + tuple(tuple(-x for x in c) for c in pos)
        self.root_set = frozenset(self.all_roots)
        self.simple_root_coeffs = tuple(
            tuple(Q1 if i == j else Q0 for j in range(rank)) for i in range(rank)
        )
        self.highest_root = max(self.positive_roots, key=lambda c: (sum(c), c))
        self.pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        # fundamental coweight directions: kappa(w_i, alpha_j) = delta_ij
        self.coweight_dirs = tuple(tuple(row) for row in self._gram_inv)

    # --- coordinates ---------------------------------------------------

    def _root_coords(self, ambient_v):
        """Express an ambient root vector over the simple roots (exact)."""
        # solve sum c_i alpha_i = v by least squares via the Gram matrix:
        # G c = (kappa(alpha_i, v))_i, valid because v lies in the root span.
        rhs = tuple(dot(a, ambient_v) for a in self.ambient_simple_roots)
        c = matvec(self._gram_inv, rhs)
        if any(x.denominator != 1 for x in c):
            raise RootSystemError(f"root {ambient_v} has non-integral coefficients {c}")
        return c

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

    def root_value(self, x, root_coeffs):
        """kappa(x, alpha) for a point x and a root alpha."""
        return self.kappa(x, root_coeffs)

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
        """Matrix of pairings <alpha_i, alpha_j> (row i against column j)."""
        return tuple(
            tuple(cartan_pairing(self, si, sj) for sj in self.simple_root_coeffs)
            for si in self.simple_root_coeffs
        )


def build_root_system(family, rank):
    """Construct the root datum for the given classical family and rank."""
    return RootDatum(family, int(rank))


def cartan_pairing(datum, beta, alpha):
    """<beta, alpha> = 2 kappa(beta, alpha) / kappa(alpha, alpha).

    Normalized by the second argument, so that for roots beta the value is the
    Cartan integer of beta against alpha.
    """
    alpha = tuple(alpha)
    if not datum.is_root(alpha):
        raise RootSystemError(f"{alpha} is not a root")
    return 2 * datum.kappa(tuple(beta), alpha) / datum.norm2(alpha)


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
