"""Exact SL_n matrices: Steinberg generators, the torus projection, valuations, S-units.

Only the standard matrix representation is realized; a root of A_{n-1} is an
off-diagonal position (i, j) and the elementary generator is I + t E_ij.  The
Weyl and torus generators are written in closed form (Steinberg 1968,
*Lectures on Chevalley groups*, §3): w_alpha(t) is the identity with the
(i, j) block replaced by [[0, t], [-1/t, 0]], and h_alpha(t) is the diagonal
matrix with t at (i, i) and 1/t at (j, j).  Their product definitions,
x_alpha(t) x_{-alpha}(-1/t) x_alpha(t) and w_alpha(t) w_alpha(1)^-1, are the
reference the tests compare against.  A matrix is held as integer rows over
one positive denominator, in canonical form.  Every generator is written in
that form directly from t = a / b (x over b; w and h over b |a|), the torus
projection is the reduced integer diagonal, and products and inverses (the
integer adjugate of `linalg.integer_inverse`) end in one gcd; only the
public constructor scales Fraction rows.  The Steinberg relations are exact
identities.  Characters of the Borel group are `sigma`'s coefficient tuples,
evaluated by `sigma.character_eval` from the valuations of the integer
diagonal and the Borel test `in_borel_o_s` here.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .linalg import det, integer_inverse, matmul, scaled


class ChevalleyError(ValueError):
    pass


class GroupElement:
    """An SL_n matrix over the rationals: integer rows `num` over `den`.

    The form is canonical, den > 0 and gcd(num, den) = 1, so equality and
    hashing compare (den, num).  The Fraction rows are built on first use.
    The public constructor converts every entry to a Fraction and checks the
    shape and det(num) = den^n; the generators and the group operations build
    their results with `_of`, which trusts a canonical (num, den).
    """

    __slots__ = ("num", "den", "n", "_rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(e) for e in row) for row in rows)
        self.n = len(rows)
        if not self.n:
            raise ChevalleyError("matrix is empty")
        if any(len(r) != self.n for r in rows):
            raise ChevalleyError("matrix is not square")
        nums, self.den = scaled(chain.from_iterable(rows))
        self.num = tuple(tuple(nums[i : i + self.n]) for i in range(0, len(nums), self.n))
        self._rows = rows
        if det(self.num) != self.den**self.n:
            raise ChevalleyError("determinant must be 1")

    @classmethod
    def _of(cls, num, den):
        g = object.__new__(cls)
        g.num = num
        g.den = den
        g.n = len(num)
        g._rows = None
        return g

    @property
    def rows(self):
        """The entries as a tuple of Fraction rows."""
        if self._rows is None:
            den = self.den
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in self.num)
        return self._rows

    def __mul__(self, other):
        if self.n != other.n:
            raise ChevalleyError(
                f"cannot multiply a {self.n}x{self.n} by a {other.n}x{other.n} matrix"
            )
        return _reduced(matmul(self.num, other.num), self.den * other.den)

    def inv(self):
        """den * num^-1 = den * adj / d, with adj . num = d I from `integer_inverse`."""
        adj, d = integer_inverse(self.num)
        den = self.den
        return _reduced(tuple(tuple(den * x for x in row) for row in adj), d)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        acc = identity_element(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        return f"GroupElement({self.rows})"

    def commutator(self, other):
        """[g, h] = g h g^-1 h^-1."""
        return self * other * self.inv() * other.inv()

    # --- shape predicates -----------------------------------------------

    def is_upper_triangular(self):
        return all(self.num[i][j] == 0 for i in range(self.n) for j in range(i))


def _reduced(num, den):
    """The element num / den for integer rows and den > 0, divided by their gcd."""
    g = gcd(den, *chain.from_iterable(num))
    if g > 1:
        num = tuple([tuple([x // g for x in row]) for row in num])
        den //= g
    return GroupElement._of(num, den)


def _ratio(t):
    """(a, b): t = a / b in lowest terms with b > 0, for an int, a Fraction or
    anything `Fraction` accepts."""
    if type(t) is int:
        return t, 1
    return (t if isinstance(t, Fraction) else Fraction(t)).as_integer_ratio()


def identity_element(n):
    return GroupElement._of(tuple(tuple(int(a == b) for b in range(n)) for a in range(n)), 1)


def root_position(n, coeffs):
    """Map a root of A_{n-1} (coefficients over the simples) to its matrix position.

    The positive root alpha_i + ... + alpha_{j-1} corresponds to (i, j) with
    0 <= i < j < n; negatives swap the indices.
    """
    return _root_position(n, tuple(coeffs))


@lru_cache(maxsize=1024)
def _root_position(n, coeffs):
    # memoized: the generators decode the same few roots thousands of times;
    # a bad root raises, so only roots are kept
    if len(coeffs) != n - 1:
        raise ChevalleyError("root has wrong rank")
    support = [k for k, c in enumerate(coeffs) if c != 0]
    if not support:
        raise ChevalleyError("zero vector is not a root")
    sign = coeffs[support[0]]
    consecutive = support == list(range(support[0], support[-1] + 1))
    if not consecutive or sign not in (1, -1) or any(coeffs[k] != sign for k in support):
        raise ChevalleyError(f"{coeffs} is not a root of A_{n-1}")
    i, j = support[0], support[-1] + 1
    if sign == 1:
        return i, j
    return j, i


def _scaled_identity(n, den):
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = den
    return rows


def x_elem(n, root, t):
    """Elementary unipotent x_alpha(t) = I + t E_ij: b I with a at (i, j), over b."""
    i, j = root_position(n, root)
    a, b = _ratio(t)
    rows = _scaled_identity(n, b)
    rows[i][j] = a
    return GroupElement._of(tuple(map(tuple, rows)), b)


def _nonzero_ratio(t, name):
    """(a, b, b |a|) for t = a / b, the common denominator of t and 1/t."""
    a, b = _ratio(t)
    if not a:
        raise ChevalleyError(f"{name}_alpha(0) is undefined")
    return a, b, b * abs(a)


def w_elem(n, root, t):
    """w_alpha(t) = x_alpha(t) x_{-alpha}(-1/t) x_alpha(t); t must be non-zero.

    In closed form: the identity with zeros at (i, i) and (j, j), t at (i, j)
    and -1/t at (j, i).  For t = a / b the denominator is b |a| and those
    entries are a |a| and -sign(a) b^2; with gcd(a, b) = 1 the form is canonical.
    """
    a, b, den = _nonzero_ratio(t, "w")
    i, j = root_position(n, root)
    rows = _scaled_identity(n, den)
    rows[i][i] = rows[j][j] = 0
    rows[i][j] = a * abs(a)
    rows[j][i] = -b * b if a > 0 else b * b
    return GroupElement._of(tuple(map(tuple, rows)), den)


def h_elem(n, root, t):
    """h_alpha(t) = w_alpha(t) w_alpha(1)^-1: the identity with t at (i, i) and 1/t at (j, j).

    Over the denominator b |a| of t = a / b those entries are a |a| and sign(a) b^2.
    """
    a, b, den = _nonzero_ratio(t, "h")
    i, j = root_position(n, root)
    rows = _scaled_identity(n, den)
    rows[i][i] = a * abs(a)
    rows[j][j] = b * b if a > 0 else -b * b
    return GroupElement._of(tuple(map(tuple, rows)), den)


def torus_projection(g):
    """delta: the diagonal part of an upper-triangular matrix."""
    if not g.is_upper_triangular():
        raise ChevalleyError("torus_projection needs an upper-triangular matrix")
    n, num = g.n, g.num
    if not all(num[i][i] for i in range(n)):
        raise ChevalleyError("singular diagonal")
    diag = tuple(tuple(num[a][a] if a == b else 0 for b in range(n)) for a in range(n))
    return _reduced(diag, g.den)


# --- valuations and S-arithmetic predicates -----------------------------------


# Miller-Rabin on these bases decides every p below the bound (Sorenson and
# Webster 2015); the bound is itself a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin primality test; raises from p = 3.3e24 on,
    where the bases are no longer proven to decide."""
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise ChevalleyError(f"primality of {p} is not decided: the test is proven below {_MR_BOUND} only")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime_base(p):
    # dividing by 1 or -1 never ends, and by 0 raises ZeroDivisionError
    if p < 2:
        raise ChevalleyError(f"{p} is not a prime")


def valuation(x, p):
    """The p-adic valuation of a non-zero rational; raises on zero and on p < 2."""
    _check_prime_base(p)
    num, den = _ratio(x)
    if num == 0:
        raise ChevalleyError("valuation of zero is +infinity")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def strip_primes(n, primes):
    """|n| with every factor p in primes divided out; raises on p < 2."""
    n = abs(n)
    for p in primes:
        _check_prime_base(p)
        while n and n % p == 0:
            n //= p
    return n


def in_o_s(x, primes):
    """Membership in O_S = Z[1/N]: denominator supported on the prime set."""
    return strip_primes(_ratio(x)[1], primes) == 1


def is_s_unit(x, primes):
    """Units of O_S: +- products of powers of the primes in S (zero strips to 0)."""
    num, den = _ratio(x)
    return strip_primes(num, primes) == 1 and strip_primes(den, primes) == 1


def in_borel_o_s(g, primes):
    """Upper triangular, entries in O_S, diagonal entries S-units.

    The denominator of g is the lcm of its entries' denominators, so every
    entry is in O_S iff 1/den is.  Then den is an S-unit, and a diagonal entry
    num[k][k] / den is one iff the integer num[k][k] is.
    """
    if not g.is_upper_triangular() or not in_o_s(Fraction(1, g.den), primes):
        return False
    return all(is_s_unit(g.num[k][k], primes) for k in range(g.n))
