"""Truncations of the Bruhat-Tits building of SL_n over the p-adic rationals.

Vertices are homothety classes of lattices, canonically represented by
column-Hermite forms over the local ring at p: an upper-triangular integer
matrix with p-power diagonal (minimal exponent zero) and entries above the
diagonal reduced modulo the diagonal of their row.  The canonical form makes
class equality a tuple comparison, and its diagonal exponent vector IS the
retraction from infinity onto the standard apartment: the off-diagonal part
is an upper-unitriangular matrix, so the Hermite form is an exact Iwasawa
factorization u * a with u unipotent and a a p-power diagonal.

A truncation grows over these forms and then interns them: the forms of the
ball are sorted once and numbered in that order, so a vertex is an int id
(`Truncation.vertices[i]` is its form) and a cell is a sorted tuple of ids.
Because the numbering preserves the order, every sorted list of cells, every
homology basis and every witness is the one the form tuples would give.
Images of vertices under the group action that fall outside the ball are
numbered on demand after the ball's range.

Apartment coordinates follow the convention that the chamber at infinity
stabilized by the upper-triangular subgroup is the all-plus chamber of the
A_{n-1} alcove geometry: the diagonal class with exponents (a_1, ..., a_n)
sits at the point x with kappa(x, alpha_i) = a_{i+1} - a_i.

Heights are `windows.HeightForm`s composed with the retraction: a vertex's
simple-root values are the exponent differences a_{i+1} - a_i of its Hermite
form, and the form reads them directly.  The height sum_i c_i kappa(., alpha_i)
satisfies h(g x) = chi(g) + h(x) for the character chi with the same
coefficients c_i over the basis chi_{i,p} (`HeightForm.equivariant_character`).
"""

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import is_prime, valuation
from .complexes import CellComplex
from .coxeter import AlcoveGeometry
from .homology import ChainComplexF2, F2Chain
from .linalg import Q0, inverse, matmul
from .root_system import build_root_system
from .windows import HeightForm


class BuildingError(ValueError):
    pass


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


def diagonal_exponents(key, p):
    """The diagonal p-exponents of a canonical form, or None if not diagonal."""
    n = len(key)
    exps = [valuation(key[i][i], p) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and key[i][j] != 0:
                return None
    return tuple(exps)


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
class Chamber:
    """A maximal lattice chain L_0 > L_1 > ... > L_{n-1} > p L_0."""

    chain: tuple  # nested lattice basis matrices (rational rows)
    keys: tuple  # canonical forms of the classes, aligned with the chain

    @property
    def cell_key(self):
        return tuple(sorted(self.keys))


class Truncation:
    """All chambers within a gallery radius of the standard base chamber.

    A vertex is an int id into `vertices`, the table of canonical forms; a
    cell is a sorted tuple of ids.  `chambers` and `chamber_distance` are
    keyed by chamber cells, `cell_distance` by every cell of `complex`.
    """

    def __init__(self, n, p, radius, max_chambers=10**6):
        if n not in (2, 3):
            raise BuildingError("only n in {2, 3} is supported")
        if not is_prime(p):
            raise BuildingError("p must be prime")
        if radius < 0:
            raise BuildingError(f"radius must be non-negative, got {radius}")
        self.n = n
        self.p = p
        self.radius = radius
        self.datum = build_root_system("A", n - 1)
        self.geometry = AlcoveGeometry(self.datum)
        self._grow(max_chambers)
        self._build_complex()
        self._retraction_cache = {}

    # --- growth ---------------------------------------------------------

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
        return Chamber(tuple(chain), keys)

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
            out.append(Chamber(tuple(new_chain), tuple(new_keys)))
        return out

    def _grow(self, max_chambers):
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
                            if len(found) >= max_chambers:
                                raise BuildingError("chamber guard exceeded")
                            found[nb.cell_key] = nb
                            dist[nb.cell_key] = d + 1
                            nxt.append(nb)
            frontier = nxt
        # ids follow the sorted order of the forms, so sorted id tuples sort
        # exactly like the form tuples they stand for
        self.vertices = []
        self._vertex_ids = {}
        self._root_values = []
        for form in sorted({form for ck in found for form in ck}):
            self.vertex_id(form)
        self.base_chamber = base
        self.base_vertex = self._vertex_ids[base.keys[0]]
        self.chambers = {self._cell_ids(ck): ch for ck, ch in found.items()}
        self.chamber_distance = {self._cell_ids(ck): d for ck, d in dist.items()}

    def _cell_ids(self, forms):
        return tuple(self._vertex_ids[f] for f in forms)

    def _build_complex(self):
        cx = CellComplex()
        self.cell_distance = {}
        for ck in self.chambers:
            m = len(ck)
            d = self.chamber_distance[ck]
            for mask in range(1, 1 << m):
                cell = tuple(ck[i] for i in range(m) if mask >> i & 1)
                facets = []
                if len(cell) > 1:
                    facets = [cell[:i] + cell[i + 1:] for i in range(len(cell))]
                cx.add_cell(cell, len(cell) - 1, facets)
                old = self.cell_distance.get(cell)
                if old is None or d < old:
                    self.cell_distance[cell] = d
        self.complex = cx.freeze()

    # --- vertex table --------------------------------------------------------

    def vertex_id(self, form):
        """The id of the vertex with this canonical form.

        Vertices of the ball have the ids 0..k-1 in the sorted order of their
        forms; a vertex outside the ball (an image under the group action) is
        numbered on first sight, after them.
        """
        vid = self._vertex_ids.get(form)
        if vid is None:
            vid = self._vertex_ids[form] = len(self.vertices)
            self.vertices.append(form)
            exps = [valuation(form[i][i], self.p) for i in range(self.n)]
            self._root_values.append(tuple(b - a for a, b in zip(exps, exps[1:])))
        return vid

    # --- retraction from infinity ----------------------------------------

    def root_values(self, v):
        """Simple-root values of the retraction image: exponent differences a_{i+1} - a_i."""
        return self._root_values[v]

    def vertex_retraction_point(self, v):
        """Apartment point of the retraction image of a vertex (root coordinates)."""
        return self.datum.point(self._root_values[v])

    def retract_cell(self, cell_key):
        """The alcove cell of the standard apartment carrying the retraction image."""
        if cell_key in self._retraction_cache:
            return self._retraction_cache[cell_key]
        pts = [self.vertex_retraction_point(v) for v in cell_key]
        m = Fraction(len(pts))
        bary = tuple(sum(col, Q0) / m for col in zip(*pts))
        cell = self.geometry.cell_of_point(bary)
        self._retraction_cache[cell_key] = cell
        return cell

    def in_standard_apartment(self, v):
        return diagonal_exponents(self.vertices[v], self.p) is not None

    def apartment_cells(self):
        """Cells all of whose vertices are diagonal classes."""
        return [
            c for c in self.complex.cells() if all(self.in_standard_apartment(v) for v in c)
        ]

    # --- group action ------------------------------------------------------

    def act_on_vertex(self, g, v):
        rows = matmul(g.rows, self.vertices[v])
        return self.vertex_id(lattice_canonical_form(rows, self.p))

    def act_on_cell(self, g, cell_key):
        return tuple(sorted(self.act_on_vertex(g, v) for v in cell_key))


# --- heights -------------------------------------------------------------------


def HeightSpec(p, coeffs):
    """HeightForm(-coeffs), the retired positive-coefficient spelling; p is unused.

    Kept only because perfbench's tree workload builds its heights this way;
    it goes with the next benchmark change, like `grow_truncation`.
    """
    return HeightForm(tuple(-Fraction(c) for c in coeffs))


def height_eval(trunc, h, cell_key):
    """Exact [min, max] of the height h over the closed cell (attained at vertices)."""
    vals = [h(trunc.root_values(v)) for v in cell_key]
    return min(vals), max(vals)


def superlevel_complex(trunc, h, r):
    """Supported subcomplex on the cells with min height >= r."""
    r = Fraction(r)
    above = [h(values) >= r for values in trunc._root_values]
    keep = [c for c in trunc.complex.cells() if all(above[v] for v in c)]
    return trunc.complex.restrict(keep)


def retraction_preimage(trunc, apartment_cells):
    """The subcomplex of cells whose retraction image lies in the given cell set."""
    cells = set(apartment_cells)
    keep = [c for c in trunc.complex.cells() if trunc.retract_cell(c) in cells]
    return trunc.complex.restrict(keep)


# --- the cone chain of the negative-direction certificate ----------------------


@dataclass
class ConeChain:
    chain: F2Chain
    boundary: F2Chain
    epsilon: Fraction
    band: tuple  # (r - epsilon, r)
    sector_cells: tuple  # one frozenset of cells per sector
    branching: dict  # cell -> number of sectors containing it


def standard_opposite_sector_cells(trunc):
    """Cells of the closed sector from the base vertex away from infinity.

    These are the apartment cells whose diagonal classes have non-increasing
    exponent vectors (the canonical sector of the all-minus chamber).
    """
    out = []
    for cell in trunc.apartment_cells():
        ok = True
        for v in cell:
            exps = diagonal_exponents(trunc.vertices[v], trunc.p)
            if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
                ok = False
                break
        if ok:
            out.append(cell)
    return frozenset(out)


def cone_chain(trunc, sector_elements, h, r):
    """The top chain of the branching cone below level r, with its certificates.

    `sector_elements` are group elements fixing the base vertex; each carries
    the standard opposite sector to the sector of one chamber at infinity
    opposite the retraction chamber.  All sectors must be realized inside the
    truncation.
    """
    std = standard_opposite_sector_cells(trunc)
    sectors = []
    for g in sector_elements:
        moved = set()
        for cell in std:
            img = trunc.act_on_cell(g, cell)
            if img not in trunc.complex:
                # cells of the infinite sector beyond the truncation are only
                # needed up to the requested level
                img_max = max(h(trunc.root_values(v)) for v in img)
                if img_max <= Fraction(r):
                    raise BuildingError(
                        "sector not realizable inside the truncation radius"
                    )
                continue
            moved.add(img)
        sectors.append(frozenset(moved))
    if len(set(sectors)) != len(sectors):
        raise BuildingError("sector elements define coinciding sectors")
    branching = {}
    for sec in sectors:
        for cell in sec:
            branching[cell] = branching.get(cell, 0) + 1
    top = trunc.complex.dim
    support = set()
    for cell, b in branching.items():
        if len(cell) - 1 != top:
            continue
        if b % 2 == 0:
            continue
        if height_eval(trunc, h, cell)[1] <= Fraction(r):
            support.add(cell)
    chain = F2Chain(top, support)
    cc = ChainComplexF2(trunc.complex)
    boundary = cc.boundary(chain)
    eps = Q0
    for sec in sectors:
        for cell in sec:
            if len(cell) - 1 == top:
                mn, mx = height_eval(trunc, h, cell)
                eps = max(eps, mx - mn)
    return ConeChain(
        chain=chain,
        boundary=boundary,
        epsilon=eps,
        band=(Fraction(r) - eps, Fraction(r)),
        sector_cells=tuple(sectors),
        branching=branching,
    )


def grow_truncation(n, p, radius, max_chambers=10**6):
    """BFS ball of chambers around the standard base chamber."""
    return Truncation(n, p, radius, max_chambers)
