"""Sparse F2 chain complexes, reduced Betti numbers, induced-map tests.

Chains are sets of cell keys; linear algebra over F2 uses Python integers as
bit rows (bit i = coefficient of the i-th cell of its degree), so Gaussian
elimination is a handful of xors.  A chain complex lists each degree's cells
in the order it is given, sorted by default.  Each boundary map is
column-reduced at most once, on first use, in that order; ranks, Betti
numbers, induced maps and bounding tests all read that reduction.  Betti
numbers are reduced: the degree-0 boundary is augmented by the empty cell.

The reduction of a filtered complex is its persistent reduction
(Edelsbrunner-Letscher-Zomorodian 2002; Zomorodian-Carlsson 2005).  A
subcomplex spanned by the first cells of each degree reads it directly: its
rank in degree k counts the pivots whose column lies in the prefix, and
H_k(small) -> H_k(big) of two prefixes is non-trivial iff some degree-k
kernel combo of small is not killed by a degree-(k+1) column of big; that
combo is the witness.

Every query is a prefix query.  `record_prefix` marks a complex as a prefix
of a filtration's chain complex; any other complex is recorded, on its first
query, as the whole of its own sorted one.  A complex does not change once
built, so an entry stays valid; the table is weakly keyed by the complex, so
an entry goes with its complex, and a ChainComplexF2 holds only cell keys,
never the complex.  A map between complexes that are not two prefixes of
one chain complex reads big's chain complex numbered with small's cells first
in each degree, both sorted: small is a prefix of it whose kernel combos are
those of its own sorted reduction.
"""

import weakref
from bisect import bisect_left
from itertools import zip_longest


class HomologyError(ValueError):
    pass


class F2Chain:
    """A k-chain over F2: the set of cells with coefficient 1."""

    def __init__(self, dim, support=()):
        self.dim = dim
        self.support = frozenset(support)

    def __eq__(self, other):
        return isinstance(other, F2Chain) and (self.dim, self.support) == (other.dim, other.support)

    def __hash__(self):
        return hash((self.dim, self.support))

    def __bool__(self):
        return bool(self.support)

    def __add__(self, other):
        if self.dim != other.dim:
            raise HomologyError("dimension mismatch")
        return F2Chain(self.dim, self.support ^ other.support)

    def __repr__(self):
        return f"F2Chain(dim={self.dim}, |supp|={len(self.support)})"


class ChainComplexF2:
    """F2 cellular chain complex of a CellComplex.

    `order`, if given, lists every cell once, and each degree's cells are
    numbered in that order; by default they are sorted.  The boundary of a
    k-cell is the sum of its codimension-1 faces; for a general chain the
    coefficient of a face is the parity of its cofaces in the support.
    d o d = 0 is checked on construction (HomologyError), including the
    augmentation composed with d_1.
    """

    def __init__(self, complex_, order=None):
        top = self.top = complex_.dim
        if order is None:
            order = [c for k in range(top + 1) for c in complex_.cells(k)]
        cells = self.cells = {k: [] for k in range(top + 1)}
        dim_of = complex_.dim_of
        for c in order:
            try:
                cells[dim_of(c)].append(c)
            except KeyError:
                raise HomologyError(f"{c!r} is not a cell of the complex") from None
        self.index = {k: {c: i for i, c in enumerate(cs)} for k, cs in cells.items()}
        self.lengths = tuple(len(cells[k]) for k in range(top + 1))
        distinct = sum(map(len, self.index.values()))
        if sum(self.lengths) != len(complex_) or distinct != len(complex_):
            raise HomologyError("the order must list every cell of the complex once")
        # boundary of each k-cell as a bit row over the (k-1)-cells; degree 0
        # maps to the empty cell (the augmentation).  d o d = 0 is checked
        # cell by cell, the boundary rows of its facets summing to zero: in
        # degree 1 that says an edge has an even number of vertices
        self.bnd = {0: [1] * self.lengths[0]} if top >= 0 else {}
        for k in range(1, top + 1):
            idx, below, cols = self.index[k - 1], self.bnd[k - 1], []
            for c in cells[k]:
                row = acc = 0
                for f in complex_.facets(c):
                    i = idx[f]
                    row ^= 1 << i
                    acc ^= below[i]
                if acc:
                    raise HomologyError(f"boundary of boundary non-zero at {c!r}")
                cols.append(row)
            self.bnd[k] = cols
        self._reductions = {}

    @property
    def chain_complex(self):
        """A chain complex is the source of its own prefixes, like a filtration."""
        return self

    # --- chain plumbing ---------------------------------------------------

    def to_bits(self, chain):
        idx = self.index[chain.dim]
        row = 0
        for c in chain.support:
            row ^= 1 << idx[c]
        return row

    def from_bits(self, dim, row):
        cs = self.cells[dim]
        return F2Chain(dim, {cs[i] for i in range(row.bit_length()) if row >> i & 1})

    def boundary(self, chain):
        """Boundary chain; coefficient of a face = parity of its cofaces in supp."""
        if chain.dim == 0:
            return F2Chain(-1, frozenset())
        idx = self.index[chain.dim]
        acc = 0
        for c in chain.support:
            acc ^= self.bnd[chain.dim][idx[c]]
        return self.from_bits(chain.dim - 1, acc)

    # --- F2 linear algebra ------------------------------------------------

    @staticmethod
    def _eliminate(row, combo, pivots):
        """Clear the leading bits of `row` that are pivots, xoring their combos into `combo`."""
        while row:
            hit = pivots.get(row.bit_length() - 1)
            if hit is None:
                break
            row ^= hit[0]
            combo ^= hit[1]
        return row, combo

    def _reduction(self, k):
        """The column reduction of bnd_k, computed once per degree.

        Returns (pivots, kernel): pivots maps the leading bit of each reduced
        column to (row, combo), where combo is the set of k-cells (as bits)
        whose boundaries sum to row; kernel lists, in increasing order, the
        columns whose reduction reaches zero.  Every column is one or the
        other, and a combo's leading bit is its own column, since a column is
        only reduced by earlier ones.  A kernel column's combo is not kept:
        in degree 0 there are n - 1 of up to n bits each.
        """
        red = self._reductions.get(k)
        if red is None:
            pivots, kernel = {}, []
            for j, col in enumerate(self.bnd[k]):
                row, combo = self._eliminate(col, 1 << j, pivots)
                if row:
                    pivots[row.bit_length() - 1] = (row, combo)
                else:
                    kernel.append(j)
            red = self._reductions[k] = (pivots, kernel)
        return red

    def rank(self, k, lengths):
        """Rank of the first lengths[k] columns of bnd_k (see `betti`)."""
        n = lengths[k] if 0 <= k < len(lengths) else 0
        return n - bisect_left(self._reduction(k)[1], n) if n else 0

    def betti(self, k, lengths):
        """Reduced F2 Betti number in degree k of the subcomplex spanned by
        the first lengths[j] j-cells of each degree j (`self.lengths` for the
        whole): the pivots of a column reduction whose own column lies in the
        prefix are those of the prefix's own.
        """
        if not 0 <= k < len(lengths):
            return 0
        # cycles (reduced in degree 0) minus boundaries
        return lengths[k] - self.rank(k, lengths) - self.rank(k + 1, lengths)

    def prefix_map_trivial(self, small, big, k):
        """Does H_k(small) -> H_k(big) vanish, for the prefixes with these lengths?

        It vanishes iff every k-cell of small that starts a cycle (a kernel
        column, the own column of its combo) is the pivot of a reduced
        column of big.  The combo of the first that is not is the witness: a
        cycle of small whose leading cell no sum of big's boundaries
        reaches, since their reduced columns have distinct leading cells.
        """
        for j, (s, b) in enumerate(zip_longest(small, big, fillvalue=0)):
            if s > b:
                raise HomologyError(
                    f"cell {self.cells[j][b]!r} of the small complex is not a cell of the big one"
                )
        n = small[k] if 0 <= k < len(small) else 0
        if not n:
            return True, None
        m = big[k + 1] if k + 1 < len(big) else 0
        deaths = self._reduction(k + 1)[0] if m else {}
        pivots, kernel = self._reduction(k)
        for own in kernel:
            if own >= n:
                break
            death = deaths.get(own)
            if death is None or death[1].bit_length() > m:
                # pivots are never replaced: the reduction of column own
                # takes the same steps again and rebuilds its combo
                combo = self._eliminate(self.bnd[k][own], 1 << own, pivots)[1]
                return False, self.from_bits(k, combo)
        return True, None

    def bounds(self, chain, lengths):
        """Whether the cycle bounds in the prefix subcomplex (see `betti`).

        The reduced columns inside the prefix span its boundaries and have
        distinct pivots, and a combo's leading bit is the latest column it
        uses, so the cycle bounds there iff the elimination reaches zero
        with a combo inside the prefix.
        """
        k = chain.dim + 1
        if k >= len(lengths):
            return not chain
        row, combo = self._eliminate(self.to_bits(chain), 0, self._reduction(k)[0])
        return not row and combo.bit_length() <= lengths[k]


_prefixes = weakref.WeakKeyDictionary()


def record_prefix(complex_, filtration, lengths):
    """Record a complex as spanned by the first lengths[k] k-cells of
    `filtration.chain_complex`, for each degree k up to its dimension.

    The filtration's chain complex is read on the first homology query, so
    recording one builds nothing.
    """
    _prefixes[complex_] = (filtration, tuple(lengths))


def _prefix(complex_):
    """(chain complex, lengths) of which a complex is the prefix; an
    unrecorded complex is recorded as the whole of its own sorted one."""
    entry = _prefixes.get(complex_)
    if entry is None:
        cc = ChainComplexF2(complex_)
        entry = _prefixes[complex_] = (cc, cc.lengths)
    source, lengths = entry
    return source.chain_complex, lengths


def betti_vector(complex_):
    cc, lengths = _prefix(complex_)
    return [cc.betti(k, lengths) for k in range(len(lengths))]


def bounds(complex_, chain):
    """Whether a cycle of a complex bounds in it."""
    cc, lengths = _prefix(complex_)
    return cc.bounds(chain, lengths)


def induced_map_trivial(small, big, k):
    """Does every k-cycle of `small` bound in `big`?

    Both are CellComplexes sharing cell keys, small a subcomplex of big
    (every cell of small is a cell of big with the same facets).  Returns
    (True, None) or (False, witness_cycle).  Degree 0 is reduced: 0-cycles
    are the even 0-chains.  Two prefixes of one filtration read its
    persistent reduction.  Any other pair reads big's chain complex with
    small's cells first in each degree, both sorted, so that small is a
    prefix of it.
    """
    s, b = _prefixes.get(small), _prefixes.get(big)
    if s is not None and b is not None and s[0] is b[0]:
        return s[0].chain_complex.prefix_map_trivial(s[1], b[1], k)
    order, lengths = [], []
    for j in range(small.dim + 1):
        head = small.cells(j)
        for c in head:
            if c not in big or big.dim_of(c) != j or big.facets(c) != small.facets(c):
                raise HomologyError(f"cell {c!r} of the small complex is not a cell of the big one")
        order += head
        lengths.append(len(head))
    first = set(order)
    order += [c for j in range(big.dim + 1) for c in big.cells(j) if c not in first]
    cc = ChainComplexF2(big, order)
    return cc.prefix_map_trivial(lengths, cc.lengths, k)
