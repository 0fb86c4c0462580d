"""The Fraction lattice-chain route for canonical forms and growth, kept as a test oracle.

The library reduces a form from arbitrary columns with a modular integer
Hermite kernel, to an integer key (d, rows) standing for the form rows / p^d
together with the p-exponents of the diagonal of rows, and grows a
truncation over those pairs alone: a new vertex on a panel is the key of the
lower neighbouring chain member with one column replaced and one diagonal
exponent lowered.  The routines here decide the same things over
Fractions instead: `echelon_basis` is a column echelon over the local ring,
`lattice_canonical_form` reduces it to canonical residues, and
`ChainTruncation` is a `Truncation` grown on a chain of Fraction basis
matrices per chamber, whose panels come from `smith_adapted_basis` and whose
every vertex is a full `lattice_canonical_form`; it keeps its Fraction forms
in `forms` and numbers their keys (`form_key`) with exponents of its own
(`key_exponents`).  Tests compare the two routes.
"""

from dataclasses import dataclass
from fractions import Fraction

from sigmabuild.building import BuildingError, Truncation
from sigmabuild.chevalley import valuation
from sigmabuild.linalg import inverse, matmul


def echelon_basis(columns, p):
    """Upper-triangular basis (same lattice, same scale) with p-power diagonal.

    `columns` is a rational matrix given as rows (n x m with m >= n, full
    rank over the p-local ring); column operations are restricted to the
    local ring, so the span is preserved exactly.
    """
    n = len(columns)
    work = [list(Fraction(e) for e in row) for row in columns]
    m = len(work[0])
    # bottom-up column echelon over the local ring: pivot by minimal valuation
    for i in range(n - 1, -1, -1):
        limit = i + (m - n)  # columns 0..limit are still available
        piv, piv_v = None, None
        for j in range(limit + 1):
            if work[i][j] == 0:
                continue
            v = valuation(work[i][j], p)
            if piv_v is None or v < piv_v:
                piv, piv_v = j, v
        if piv is None:
            raise BuildingError("columns do not span a full lattice")
        tgt = limit
        if piv != tgt:
            for r in range(n):
                work[r][piv], work[r][tgt] = work[r][tgt], work[r][piv]
        unit = work[i][tgt] / Fraction(p) ** piv_v
        for r in range(n):
            work[r][tgt] /= unit
        for j in range(limit):
            if work[i][j] != 0:
                f = work[i][j] / work[i][tgt]
                for r in range(n):
                    work[r][j] -= f * work[r][tgt]
    keep = list(range(m - n, m))
    return tuple(tuple(work[i][j] for j in keep) for i in range(n))


def _canonical_residue(t, a, p):
    """The canonical representative of t modulo p^a Z_(p).

    Residues are m / p^s with s = max(0, -v_p(t)) and 0 <= m < p^(a+s); the
    difference (t - r) is divisible by p^a in the local ring.
    """
    if t == 0:
        return Fraction(0)
    v = valuation(t, p)
    if v >= a:
        return Fraction(0)
    s = max(0, -v)
    scaled = t * Fraction(p) ** s  # now p-integral
    mod = p ** (a + s)
    num, den = scaled.numerator, scaled.denominator
    r = (num * pow(den, -1, mod)) % mod
    return Fraction(r, p**s)


def lattice_canonical_form(columns, p):
    """Canonical Hermite form of the lattice class spanned by the given columns.

    Upper triangular with p-power diagonal, minimal diagonal exponent zero
    (homothety normalization) and each above-diagonal entry reduced to its
    canonical residue modulo the diagonal p-power of its row.  Two rational
    matrices generate the same lattice class iff their forms coincide.
    """
    n = len(columns)
    mat = [list(row) for row in echelon_basis(columns, p)]
    exps = [valuation(mat[i][i], p) for i in range(n)]
    shift = min(exps)
    scale = Fraction(p) ** (-shift)
    mat = [[e * scale for e in row] for row in mat]
    exps = [e - shift for e in exps]
    # reduce the entries above each diagonal modulo its row's p-power
    for j in range(n):
        for i in range(j - 1, -1, -1):
            r = _canonical_residue(mat[i][j], exps[i], p)
            f = (mat[i][j] - r) / Fraction(p) ** exps[i]
            for rr in range(i + 1):
                mat[rr][j] -= f * mat[rr][i]
            if mat[i][j] != r:
                raise BuildingError(f"entry {mat[i][j]} did not reduce to its residue {r}")
    return tuple(tuple(row) for row in mat)


def form_key(form, p):
    """The integer key (d, rows) of a canonical form: rows = p^d form for the least such d."""
    d = max(valuation(x.denominator, p) for row in form for x in row)
    return d, tuple(tuple(int(x * p**d) for x in row) for row in form)


def key_exponents(key, p):
    """The p-exponents of the diagonal of a key's rows, by valuation."""
    return tuple(valuation(row[i], p) for i, row in enumerate(key[1]))


def diagonal_exponents(key, p):
    """The diagonal p-exponents of the form of a key, or None if it is not diagonal."""
    d, rows = key
    if any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j):
        return None
    return tuple(e - d for e in key_exponents(key, p))


def smith_adapted_basis(b_mat, a_mat, p):
    """Basis of lattice B adapted to a sublattice A with quotient (Z/p)^2.

    Returns (W, exps): the columns of W are a basis of B and the columns of
    W scaled by p^exps[i] are a basis of A; exps is ascending.
    """
    n = len(b_mat)
    c = matmul(inverse(b_mat), a_mat)
    c = [list(row) for row in c]
    w = [list(row) for row in b_mat]
    exps = []
    for k in range(n):
        piv_i = piv_j = piv_v = None
        for i in range(k, n):
            for j in range(k, n):
                if c[i][j] == 0:
                    continue
                v = valuation(c[i][j], p)
                if piv_v is None or v < piv_v:
                    piv_i, piv_j, piv_v = i, j, v
        if piv_v is None:
            raise BuildingError("sublattice is degenerate")
        # move pivot to (k, k): row swap mirrors on W columns, column swap free
        if piv_i != k:
            c[k], c[piv_i] = c[piv_i], c[k]
            for r in range(n):
                w[r][k], w[r][piv_i] = w[r][piv_i], w[r][k]
        if piv_j != k:
            for r in range(n):
                c[r][k], c[r][piv_j] = c[r][piv_j], c[r][k]
        unit = c[k][k] / Fraction(p) ** piv_v
        # scale row k of C by 1/unit <-> scale col k of W by unit
        for j in range(n):
            c[k][j] /= unit
        for r in range(n):
            w[r][k] *= unit
        for i in range(k + 1, n):
            if c[i][k] != 0:
                f = c[i][k] / c[k][k]
                for j in range(n):
                    c[i][j] -= f * c[k][j]
                # row_i -= f row_k  <->  W col_k += f col_i
                for r in range(n):
                    w[r][k] += f * w[r][i]
        for j in range(k + 1, n):
            if c[k][j] != 0:
                f = c[k][j] / c[k][k]
                for i in range(n):
                    c[i][j] -= f * c[i][k]
        exps.append(piv_v)
    if exps != sorted(exps):
        raise BuildingError("elementary divisors not ascending")
    return tuple(tuple(row) for row in w), tuple(exps)


@dataclass
class ChainChamber:
    """A maximal lattice chain L_0 > L_1 > ... > L_{n-1} > p L_0."""

    chain: tuple  # nested lattice basis matrices (rational rows)
    keys: tuple  # canonical forms of the classes, aligned with the chain

    @property
    def cell_key(self):
        return tuple(sorted(self.keys))


class ChainTruncation(Truncation):
    """A `Truncation` grown over Fraction lattice chains and Smith-adapted panels."""

    def _base_chamber(self):
        n, p = self.n, self.p
        chain = []
        for i in range(n):
            rows = tuple(
                tuple(Fraction(p if (r == c and r < i) else (1 if r == c else 0)) for c in range(n))
                for r in range(n)
            )
            chain.append(rows)
        keys = tuple(lattice_canonical_form(m, p) for m in chain)
        return ChainChamber(tuple(chain), keys)

    def _panel_neighbors(self, chamber, k):
        """The p other chambers across the panel dropping the k-th chain member."""
        n, p = self.n, self.p
        chain = chamber.chain
        if k == 0:
            upper = tuple(tuple(e / p for e in row) for row in chain[n - 1])
            lower = chain[1] if n > 1 else tuple(
                tuple(e * p for e in row) for row in chain[0]
            )
        elif k == n - 1:
            upper = chain[n - 2]
            lower = tuple(tuple(e * p for e in row) for row in chain[0])
        else:
            upper = chain[k - 1]
            lower = chain[k + 1]
        w, exps = smith_adapted_basis(upper, lower, p)
        if exps[-2:] != (1, 1) or any(e != 0 for e in exps[:-2]):
            raise BuildingError("panel quotient is not (Z/p)^2")
        cols = [[w[r][j] for r in range(n)] for j in range(n)]  # columns of W
        out = []
        for a, b in [(1, t) for t in range(p)] + [(0, 1)]:
            mid = [a * cols[n - 2][r] + b * cols[n - 1][r] for r in range(n)]
            gens = []
            for j in range(n - 2):
                gens.append(cols[j])
            gens.append(mid)
            gens.append([p * cols[n - 2][r] for r in range(n)])
            gens.append([p * cols[n - 1][r] for r in range(n)])
            rows = tuple(tuple(g[r] for g in gens) for r in range(n))
            key = lattice_canonical_form(rows, p)
            if key == chamber.keys[k]:
                continue
            # keep the literal intermediate lattice so the chain stays nested
            new_chain = list(chamber.chain)
            new_keys = list(chamber.keys)
            new_chain[k] = echelon_basis(rows, p)
            new_keys[k] = key
            out.append(ChainChamber(tuple(new_chain), tuple(new_keys)))
        return out

    def _grow(self):
        """Breadth-first growth over canonical forms, then interning in sorted order."""
        base = self._base_chamber()
        found = {base.cell_key: base}
        dist = {base.cell_key: 0}
        frontier = [base]
        while frontier:
            nxt = []
            for ch in frontier:
                d = dist[ch.cell_key]
                if d == self.radius:
                    continue
                for k in range(self.n):
                    for nb in self._panel_neighbors(ch, k):
                        if nb.cell_key not in found:
                            found[nb.cell_key] = nb
                            dist[nb.cell_key] = d + 1
                            nxt.append(nb)
            frontier = nxt
        # ids follow the sorted order of the forms, so sorted id tuples sort
        # exactly like the form tuples they stand for
        self.forms = sorted({form for ck in found for form in ck})
        for form in self.forms:
            key = form_key(form, self.p)
            self.vertex_id((key, key_exponents(key, self.p)))
        ids = {form: i for i, form in enumerate(self.forms)}
        self.base_vertex = ids[base.keys[0]]
        self.chambers = {tuple(ids[f] for f in ck): d for ck, d in dist.items()}
