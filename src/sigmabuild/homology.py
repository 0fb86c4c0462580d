"""Sparse F2 chain complexes, reduced Betti numbers, induced-map tests.

Chains are sets of cell keys; linear algebra over F2 uses Python integers as
bit rows (bit i = coefficient of the i-th cell in a fixed sorted order), so
Gaussian elimination is a handful of xors.  Each boundary map is
column-reduced at most once, on first use; ranks, Betti numbers, cycle bases
and bounding chains all read that reduction.  Betti numbers are reduced: the
degree-0 boundary is augmented by the empty cell.  An induced map
H_k(small) -> H_k(big) is decided inside big's complex alone: small's k-cells
go through the same pivot loop as big's columns, and each cycle is tested
against big's degree-(k+1) reduction as soon as it appears.
"""


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

    The boundary of a k-cell is the sum of its codimension-1 faces; for a
    general chain the coefficient of a face is the parity of its cofaces in
    the support.  d o d = 0 is checked on construction (HomologyError),
    including the augmentation composed with d_1.
    """

    def __init__(self, complex_):
        if not complex_.frozen:
            raise HomologyError("freeze the complex first")
        self.complex = complex_
        self.top = complex_.dim
        self.cells = {k: complex_.cells(k) for k in range(self.top + 1)}
        self.index = {
            k: {c: i for i, c in enumerate(cs)} for k, cs in self.cells.items()
        }
        # boundary of each k-cell as a bit row over the (k-1)-cells
        self.bnd = {}
        for k in range(self.top + 1):
            cols = []
            for c in self.cells[k]:
                row = 0
                if k > 0:
                    idx = self.index[k - 1]
                    for f in complex_.facets(c):
                        row ^= 1 << idx[f]
                else:
                    row = 1  # augmentation to the empty cell
                cols.append(row)
            self.bnd[k] = cols
        # the augmentation composed with d_1: every edge has an even number
        # of vertices, i.e. an even number of bits in its boundary row
        for c, row in zip(self.cells.get(1, ()), self.bnd.get(1, ())):
            if row.bit_count() % 2:
                raise HomologyError(f"boundary of boundary non-zero at {c!r}")
        for k in range(2, self.top + 1):
            for c, col in zip(self.cells[k], self.bnd[k]):
                acc = 0
                idx = self.index[k - 1]
                for f in self.complex.facets(c):
                    acc ^= self.bnd[k - 1][idx[f]]
                if acc:
                    raise HomologyError(f"boundary of boundary non-zero at {c!r}")
        self._reductions = {}

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
        whose boundaries sum to row; kernel lists, in column order, the
        combos whose boundaries sum to zero.
        """
        red = self._reductions.get(k)
        if red is None:
            pivots = {}
            columns = ((col, 1 << j) for j, col in enumerate(self.bnd[k]))
            kernel = list(self._reduce(columns, pivots))
            red = self._reductions[k] = (pivots, kernel)
        return red

    @classmethod
    def _reduce(cls, columns, pivots):
        """Reduce (column, combo) pairs into `pivots`; yield each kernel combo as it appears."""
        for col, combo in columns:
            row, combo = cls._eliminate(col, combo, pivots)
            if row:
                pivots[row.bit_length() - 1] = (row, combo)
            else:
                yield combo

    def kernel_basis(self, k):
        """Basis of the k-cycles (reduced: degree 0 uses the augmentation)."""
        return [self.from_bits(k, combo) for combo in self._reduction(k)[1]]

    def rank(self, k):
        if k < 0 or k > self.top:
            return 0
        return len(self._reduction(k)[0])

    def betti(self, k):
        """Reduced F2 Betti number in degree k."""
        if k < 0 or k > self.top:
            return 0
        n_k = len(self.cells[k])
        z_k = n_k - self.rank(k)  # cycles (reduced in degree 0)
        return z_k - self.rank(k + 1)

    def solve_boundary(self, k, target):
        """One k-chain with the given boundary, or None.

        `target` is a (k-1)-chain (or an augmented 0-chain when k = 0).
        """
        t, combo = self._eliminate(self.to_bits(target), 0, self._reduction(k)[0])
        return None if t else self.from_bits(k, combo)

    def bounds(self, chain):
        """Whether the cycle bounds (is in the image of the next boundary map)."""
        if chain.dim >= self.top:
            return not chain
        return self.solve_boundary(chain.dim + 1, chain) is not None


def betti(complex_, k):
    """Reduced F2 Betti number of a frozen CellComplex."""
    return ChainComplexF2(complex_).betti(k)


def betti_vector(complex_):
    cc = ChainComplexF2(complex_)
    return [cc.betti(k) for k in range(cc.top + 1)]


def induced_map_trivial(small, big, k):
    """Does every k-cycle of `small` bound in `big`?

    Both are frozen CellComplexes sharing cell keys, small a subcomplex of
    big (every cell of small is a cell of big with the same facets).  Returns
    (True, None) or (False, witness_cycle).  Degree 0 is reduced: 0-cycles
    are the even 0-chains.
    """
    if not small.frozen:
        raise HomologyError("freeze the complex first")
    big_cc = ChainComplexF2(big)
    for c in small.cells():
        if c not in big or big.dim_of(c) != small.dim_of(c) or big.facets(c) != small.facets(c):
            raise HomologyError(f"cell {c!r} of the small complex is not a cell of the big one")
    if k > small.dim:
        return True, None
    # small's k-cells reduced as big's columns: sorted order survives the
    # restriction, so pivots and kernel combos are those of small's own reduction
    idx = big_cc.index[k]
    columns = ((big_cc.bnd[k][idx[c]], 1 << idx[c]) for c in small.cells(k))
    bounding = big_cc._reduction(k + 1)[0] if k < big_cc.top else {}
    for combo in big_cc._reduce(columns, {}):
        if big_cc._eliminate(combo, 0, bounding)[0]:
            return False, big_cc.from_bits(k, combo)
    return True, None
