"""Truncations of the Bruhat-Tits building of SL_n over the p-adic rationals.

Vertices are homothety classes of lattices, canonically represented by
column-Hermite forms over the local ring at p: an upper-triangular integer
matrix with p-power diagonal (minimal exponent zero) and entries above the
diagonal reduced modulo the diagonal of their row.  The canonical form makes
class equality a tuple comparison, and its diagonal exponent vector IS the
retraction from infinity onto the standard apartment: the off-diagonal part
is an upper-unitriangular matrix, so the Hermite form is an exact Iwasawa
factorization u * a with u unipotent and a a p-power diagonal.

One integer kernel computes a form from arbitrary columns: a column Hermite
reduction over the local ring at p with the minimal-valuation pivot and unit
inverses, with every entry reduced modulo p^(N+1) for N = v_p(det)
(Domich-Kannan-Trotter).  It returns a vertex as the pair (key, exps): the
integer key (d, rows), the form being rows / p^d, and the p-exponents exps
of the diagonal of rows.  Growth, the vertex tables and the group action all
hold that pair, no code outside the kernel takes a diagonal valuation again,
and only `Truncation.form` turns a key into Fractions, for printing.  The
reduction above the diagonal and the homothety normalization that end the
kernel are one helper, `_reduced_key`, which growth shares.

A truncation grows over keys alone.  A chamber is a lattice chain
L_0 > L_1 > ... > L_{n-1} > p L_0, held as the vertices of its members: the
diagonal base chamber goes straight to `_reduced_key`, and every other vertex
is read off the two chain members beside it on its panel (`_panel_vertices`),
with one column replaced, one exponent lowered, one reduction above the
diagonal and one normalization, and no pivot search.  The keys of the ball
are then sorted once in the order of their forms and numbered in that order,
so a vertex is an int id (`Truncation.vertices[i]` is its key and
`exponents[i]` its exps) and a cell is a sorted tuple of ids.  Because the
numbering preserves the order, every sorted list of cells, every homology
basis and every witness is the one the form tuples would give.  An element g
of the group acts on a vertex through the kernel, on the integer columns of
g.num times the key's rows; images that fall outside the ball are numbered on
demand after the ball's range.

Apartment coordinates follow the convention that the chamber at infinity
stabilized by the upper-triangular subgroup is the all-plus chamber of the
A_{n-1} alcove geometry: the diagonal class with exponents (a_1, ..., a_n)
sits at the point x with kappa(x, alpha_i) = a_{i+1} - a_i.  These
simple-root values are read from a vertex's exps, and its scaled values over
all positive roots are computed once, when it is numbered; the retraction
image of a cell is the alcove key of the mean of its vertices' scaled values,
and `retraction_preimage` indexes every cell by its image once per truncation.

Heights are `windows.HeightForm`s composed with the retraction: a vertex's
simple-root values are the exponent differences a_{i+1} - a_i of its Hermite
form, and the form reads them directly.  The height sum_i c_i kappa(., alpha_i)
satisfies h(g x) = chi(g) + h(x) for the character chi whose block at p is
c itself: `sigma.character_eval(SigmaContext.for_sl(n, (p,)), h.coeffs, g)`.

A truncation keeps one `HeightFiltration` per form: the levels `h.level` of
its vertices, the integers d*h(v) over the form's denominator d, extended
whenever a vertex is numbered, and its cells sorted by (-entry, dim, key),
where a cell enters at the least level of its vertices, so that every
prefix is face-closed (checked once, when the filtration is built).  The
superlevel complex X_{>=r} is the prefix of that order with entry >= the
grid ceiling of r (`h.grid`), its length in each degree found by bisection,
taken as a subcomplex without a closure check of its own.  The
truncation's chain complex in that order is built once per form, on the
first homology query; its column reduction is the persistent reduction of
the height filtration (Edelsbrunner-Letscher-Zomorodian 2002), and every
superlevel complex is recorded as a prefix of it, so Betti numbers and
induced maps between levels read that one reduction.  The cone chain
compares the same levels.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd
from operator import sub

from .chevalley import is_prime, valuation
from .complexes import simplicial_complex
from .coxeter import AlcoveGeometry
from .homology import ChainComplexF2, F2Chain, record_prefix
from .linalg import det, matmul
from .root_system import build_root_system
from .windows import HeightForm


class BuildingError(ValueError):
    pass


def _hermite_form(cols, p, N):
    """The vertex (key, exps) of the lattice class spanned by integer columns.

    The columns span a lattice M of Z_(p)^n with p^N Z_(p)^n inside M, which
    holds for N = v_p(det).  The column Hermite reduction over the local ring
    goes bottom-up: row i takes as pivot an available column of least
    valuation there, scaled by its unit inverse, and clears the row in the
    other columns; then every entry above the diagonal is reduced into
    [0, p^e_i) of its row.  No diagonal exponent exceeds N, so every entry
    may be reduced modulo p^(N+1) throughout (Domich-Kannan-Trotter 1987).
    The form of the class is rows / p^d, with rows an integer matrix whose
    entries are not all divisible by p; the key is (d, rows), and exps are
    the p-exponents of the diagonal of rows (`_reduced_key`).
    """
    n = len(cols)
    q = p ** (N + 1)
    work = [[x % q for x in col] for col in cols]
    exps = [0] * n
    for i in range(n - 1, -1, -1):
        live = [(valuation(work[j][i], p), j) for j in range(i + 1) if work[j][i]]
        if not live:
            raise BuildingError("columns do not span a full lattice")
        v, j = min(live)
        work[i], work[j] = work[j], work[i]
        pv = p**v
        inv = pow(work[i][i] // pv, -1, q)
        piv = work[i] = [x * inv % q for x in work[i]]
        for j in range(i):
            f = work[j][i] // pv
            if f:
                work[j] = [(a - f * b) % q for a, b in zip(work[j], piv)]
        exps[i] = v
    return _reduced_key(work, exps, p)


def _reduced_key(cols, exps, p):
    """The vertex (key, exps) of the class spanned by upper-triangular integer
    columns whose diagonal entries are the powers p^exps.

    Every entry above the diagonal is reduced into [0, p^e_i) of its row, from
    the bottom of each column up (`cols` is reduced in place); then the class
    is shifted by p^-min(exps), over the least power of p that it needs, to
    the key (d, rows), and exps by the same shift, to the p-exponents of the
    diagonal of rows.
    """
    for j in range(1, len(cols)):
        col = cols[j]
        for i in range(j - 1, -1, -1):
            f = col[i] // p ** exps[i]
            if f:
                col = [a - f * b for a, b in zip(col, cols[i])]
        cols[j] = col
    g = valuation(gcd(*chain.from_iterable(cols)), p)
    if g:
        pg = p**g
        cols = [[x // pg for x in col] for col in cols]
    return (min(exps) - g, tuple(zip(*cols))), tuple(e - g for e in exps)


def _panel_vertices(upper, lower, own, p):
    """The vertices that replace `own` in the other p chambers of its panel.

    A vertex is the pair (key, exps) of `_reduced_key`, and so is each one
    returned.  The chain members on the panel lie between two lattices U
    (`upper`) and W (`lower`), known by their classes and brought to one
    integral scale by det W = p^2 det U and det L = p det U for own's lattice
    L.  The forms are upper triangular with p-power diagonals, so the
    exponents of W exceed those of U by 1 in exactly two rows i1 < i2, and
    U/W = (Z/p)^2 is spanned by the columns U[i1] and U[i2].  The p + 1 lattices
    between them are W + Z U[i1] and W + Z (U[i2] + t U[i1]) for t = 0..p-1: W
    with column i1, or i2, replaced and its exponent lowered by 1.  Own's line
    is skipped without a form: if L lowered exponent i1 it is the first; if it
    lowered i2, its column c there is U[i2] + t U[i1] modulo W for its own t,
    and the others are c + s U[i1] for s = 1..p-1.
    """
    ((_, u_rows), ue), ((_, w_rows), we), ((_, l_rows), le) = upper, lower, own
    n = len(ue)
    top, top_rest = divmod(sum(ue) + 2 - sum(we), n)
    mid, mid_rest = divmod(sum(ue) + 1 - sum(le), n)
    # U, W and L scaled by p^su, p^sw and p^sl
    su = max(0, -top, -mid)
    sw, sl = top + su, mid + su
    we = [e + sw for e in we]
    rows = [i for i in range(n) if we[i] != ue[i] + su]
    if top_rest or len(rows) != 2 or any(we[i] != ue[i] + su + 1 for i in rows):
        raise BuildingError("panel lattices do not have quotient (Z/p)^2")
    i1, i2 = rows
    # with det L = p det U, a single differing exponent is one lower than W's
    lowered = [i for i in range(n) if le[i] + sl != we[i]]
    if mid_rest or lowered not in ([i1], [i2]):
        raise BuildingError("chain member does not lie on its panel")
    pu = p**su
    u1 = [row[i1] * pu for row in u_rows]
    if lowered == [i1]:
        c = [row[i2] * pu for row in u_rows]
        lines = [(i2, [a + t * b for a, b in zip(c, u1)]) for t in range(p)]
    else:
        c = [row[i2] * p**sl for row in l_rows]
        lines = [(i1, u1)] + [(i2, [a + s * b for a, b in zip(c, u1)]) for s in range(1, p)]
    pw = p**sw
    w_cols = [[x * pw for x in col] for col in zip(*w_rows)] if sw else list(zip(*w_rows))
    out = []
    for i, col in lines:
        cols = w_cols[:]
        cols[i] = col
        exps = we[:]
        exps[i] -= 1
        out.append(_reduced_key(cols, exps, p))
    return out


def _root_values(exps):
    """The simple-root values a_{i+1} - a_i of the diagonal exponents a, as an iterator."""
    return map(sub, exps[1:], exps)


# Truncation refuses a ball of more chambers than this, counted before growth
MAX_TRUNCATION_CHAMBERS = 10**5


class Truncation:
    """All chambers within a gallery radius of the standard base chamber.

    A vertex is an int id into `vertices` and `exponents`, the tables of the
    pairs (key, exps) that `vertex_id` numbers; a cell is a sorted tuple of
    ids.  `chambers` maps each chamber cell to its gallery distance from the
    base chamber, `cell_distance` every cell of `complex` to the least
    distance of a chamber containing it.

    Growth is breadth-first over chambers, each the vertices (key, exps) of
    its lattice chain L_0 > ... > L_{n-1} > p L_0.  The base chamber,
    L_i = span(p e_1, ..., p e_i, e_{i+1}, ..., e_n), is diagonal, so its
    vertices are `_reduced_key`s of those columns with no pivot search; every
    other vertex comes from `_panel_vertices`, from the vertices of the two
    chain members beside it.  A chamber does not enumerate the panel it was
    reached across.
    """

    def __init__(self, n, p, radius):
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
        self._filtrations = {}
        self._check_ball()
        # made here, not in `_grow`, so that every growth route numbers its
        # vertices into them through `vertex_id`
        self.vertices = []
        self.exponents = []
        self._vertex_ids = {}
        self._apartment_values = []
        self._grow()
        self._build_complex()
        self._retraction_fibres = None  # image -> cells, built on first use

    # --- growth ---------------------------------------------------------

    def _check_ball(self):
        """Raise if the ball holds more than MAX_TRUNCATION_CHAMBERS chambers:
        a_d p^d at gallery distance d, a_d the alcoves at distance d in an
        apartment (Abramenko-Brown 2008), counted by a breadth-first search of
        the apartment until the radius or until the sum passes the bound."""
        layers = self.geometry.gallery_layers(self.geometry._fundamental)
        total = 0
        for d, layer in zip(range(self.radius + 1), layers):
            total += len(layer) * self.p**d
            if total > MAX_TRUNCATION_CHAMBERS:
                raise BuildingError(
                    f"chamber guard exceeded: the ball of radius {self.radius} "
                    f"holds more than {MAX_TRUNCATION_CHAMBERS:,} chambers"
                )

    def _grow(self):
        """Breadth-first growth over integer form keys, then interning in sorted form order."""
        n, p = self.n, self.p
        base = []
        for i in range(n):
            # L_i = span(p e_1, ..., p e_i, e_{i+1}, ..., e_n)
            exps = [int(c < i) for c in range(n)]
            cols = [[p**e * (r == c) for r in range(n)] for c, e in enumerate(exps)]
            base.append(_reduced_key(cols, exps, p))
        base = tuple(base)
        found = dict(base)  # key -> exps of every vertex found
        dist = {tuple(sorted(found)): 0}
        frontier = [(base, None)]
        for d in range(1, self.radius + 1):
            nxt = []
            for ch, came_across in frontier:
                for k in range(n):
                    if k == came_across:
                        continue
                    # panel 0 lies between p^-1 L_{n-1} and L_1, the last between L_{n-2} and p L_0
                    for v in _panel_vertices(ch[k - 1], ch[(k + 1) % n], ch[k], p):
                        nb = ch[:k] + (v,) + ch[k + 1:]
                        ck = tuple(sorted([key for key, _ in nb]))
                        if ck not in dist:
                            dist[ck] = d
                            nxt.append((nb, k))
                            found[v[0]] = v[1]
            frontier = nxt
        # ids follow the sorted order of the forms, so sorted id tuples sort
        # exactly like the form tuples they stand for; over the common
        # denominator p^top the forms sort like integer tuples
        top = max(d for d, _ in found)
        order = sorted(found, key=lambda k: [x * p ** (top - k[0]) for r in k[1] for x in r])
        for key in order:
            self.vertex_id((key, found[key]))
        ids = self._vertex_ids
        self.chambers = {tuple(sorted(ids[key] for key in ck)): d for ck, d in dist.items()}
        self.base_vertex = ids[base[0][0]]

    def _build_complex(self):
        # `chambers` is in breadth-first order: a cell's first chamber is a nearest one
        dist = self.cell_distance = {}

        def new_faces():
            for ck, d in self.chambers.items():
                for k in range(1, len(ck) + 1):
                    for cell in combinations(ck, k):
                        if cell not in dist:
                            dist[cell] = d
                            yield cell

        self.complex = simplicial_complex(new_faces())

    def vertex_layers(self):
        """The sets of vertex ids at edge distance 0, 1, 2, ... from
        `base_vertex` in the 1-skeleton, until the ball is exhausted.

        A neighbour of a vertex at distance d may be at distance d too (the
        SL_3 skeleton has triangles), so every layer found is kept as seen.
        """
        adj = {}
        for a, b in self.complex.cells(1):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen, layer = set(), {self.base_vertex}
        while layer:
            yield layer
            seen |= layer
            layer = {w for v in layer for w in adj[v]} - seen

    # --- vertex table --------------------------------------------------------

    def vertex_id(self, vertex):
        """The id of the vertex (key, exps), the pair the kernel returns.

        Vertices of the ball have the ids 0..k-1 in the sorted order of their
        forms; a vertex outside the ball (an image under the group action) is
        numbered on first sight, after them.  Its root values, the differences
        of exps, extend the apartment and height tables.
        """
        key, exps = vertex
        vid = self._vertex_ids.get(key)
        if vid is None:
            vid = self._vertex_ids[key] = len(self.vertices)
            self.vertices.append(key)
            self.exponents.append(exps)
            values = tuple(_root_values(exps))
            self._apartment_values.append(self.geometry._scaled_values(values))
            for h, filtration in self._filtrations.items():
                filtration.heights.append(h.level(values))
        return vid

    def form(self, v):
        """The canonical form of vertex v, rows / p^d, as Fraction rows."""
        d, rows = self.vertices[v]
        den = self.p**d
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def height_filtration(self, h):
        """The cached `HeightFiltration` of the height form h."""
        filtration = self._filtrations.get(h)
        if filtration is None:
            filtration = self._filtrations[h] = HeightFiltration(self, h)
        return filtration

    # --- retraction from infinity ----------------------------------------

    def root_values(self, v):
        """Simple-root values of the retraction image: exponent differences a_{i+1} - a_i."""
        return tuple(_root_values(self.exponents[v]))

    def vertex_retraction_point(self, v):
        """Apartment point of the retraction image of a vertex (root coordinates)."""
        return self.datum.point(self.root_values(v))

    def retract_cell(self, cell_key):
        """The alcove cell of the standard apartment carrying the retraction image.

        It is the key of the mean of the vertices' images, read from their
        scaled apartment values.
        """
        values = self._apartment_values
        return self.geometry._key_of_mean([values[v] for v in cell_key])

    def in_standard_apartment(self, v):
        """Whether v is a diagonal class: its form has no entry off the diagonal."""
        rows = self.vertices[v][1]
        return not any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)

    def apartment_cells(self):
        """Cells all of whose vertices are diagonal classes."""
        return [
            c for c in self.complex.cells() if all(self.in_standard_apartment(v) for v in c)
        ]

    # --- group action ------------------------------------------------------

    def act_on_vertex(self, g, v):
        """The id of g v: the form of the integer columns of g.num times v's rows.

        The product spans the class of g v (g.den and p^d are scalars), and
        v_p of its determinant is v_p(det g.num) plus the diagonal exponents
        of the triangular rows, read from `exponents`.
        """
        if g.n != self.n:
            raise BuildingError(f"a {g.n}x{g.n} matrix cannot act on SL_{self.n} lattices")
        d = det(g.num)
        if d == 0:
            raise BuildingError("columns do not span a full lattice")
        N = valuation(d, self.p) + sum(self.exponents[v])
        cols = list(zip(*matmul(g.num, self.vertices[v][1])))
        return self.vertex_id(_hermite_form(cols, self.p, N))

    def act_on_cell(self, g, cell_key):
        return tuple(sorted(self.act_on_vertex(g, v) for v in cell_key))


# --- heights -------------------------------------------------------------------


def HeightSpec(p, coeffs):
    """HeightForm(-coeffs), the retired positive-coefficient spelling; p is unused.

    Kept only because perfbench's tree workload builds its heights this way;
    it goes with the next benchmark change, like `grow_truncation`.
    """
    return HeightForm(tuple(-Fraction(c) for c in coeffs))


class HeightFiltration:
    """The superlevel filtration of a truncation by one height form.

    `heights[v]` is the level `h.level` of vertex v, the integer d * h(v);
    `cells` lists the truncation's cells by (-entry, dim, key), where a cell's
    entry is the least level of its vertices, and `_neg_entries[k]` lists
    -entry of its k-cells in that order.  A face enters no later than its
    cells, so every prefix of `cells` is a subcomplex: that is checked once,
    here, and `superlevel_complex` takes prefixes without a closure check.
    `chain_complex`, the truncation's ChainComplexF2 in the order of `cells`,
    is built on first use; its reduction is the persistent one of the
    filtration.
    """

    def __init__(self, trunc, h):
        # one coefficient per simple-root value of a vertex: n - 1 on SL_n
        rank = len(trunc.exponents[0]) - 1
        if len(h.coeffs) != rank:
            raise BuildingError(f"height has {len(h.coeffs)} coefficient(s), one per simple root needs {rank}")
        self.h = h
        self._complex = trunc.complex
        self.heights = hts = [h.level(_root_values(exps)) for exps in trunc.exponents]
        cx = trunc.complex
        by_dim = [cx.cells(k) for k in range(cx.dim + 1)]
        neg = {c: -min(map(hts.__getitem__, c)) for c in chain.from_iterable(by_dim)}
        self._neg_entries = [sorted(map(neg.__getitem__, cs)) for cs in by_dim]
        # (dim, key) order, then one stable sort by -entry
        self.cells = sorted(chain.from_iterable(by_dim), key=neg.__getitem__)
        # a facet, one dimension down, comes first iff it enters no later
        facets = cx._facets
        for c in self.cells:
            e = neg[c]
            for f in facets[c]:
                if neg[f] > e:
                    raise BuildingError(f"a facet of {c} comes after it in the height filtration")

    @cached_property
    def chain_complex(self):
        return ChainComplexF2(self._complex, order=self.cells)

    def superlevel_lengths(self, r):
        """The number of k-cells with all vertices at height >= r, for each degree k
        up to the dimension of the superlevel complex."""
        t = -self.h.grid(r)[1]
        lengths = [bisect_right(es, t) for es in self._neg_entries]
        while lengths and not lengths[-1]:
            lengths.pop()
        return lengths


def height_eval(trunc, h, cell_key):
    """Exact [min, max] of the height h over the closed cell (attained at vertices)."""
    heights = trunc.height_filtration(h).heights
    vals = [heights[v] for v in cell_key]
    lo, hi = min(vals), max(vals)
    low = Fraction(lo, h.d)
    return low, (low if hi == lo else Fraction(hi, h.d))


def superlevel_complex(trunc, h, r):
    """Supported subcomplex on the cells with min height >= r.

    It is recorded as a prefix of the height filtration, so its homology and
    the maps into the other superlevel complexes of h read the filtration's
    one reduction.
    """
    filtration = trunc.height_filtration(h)
    lengths = filtration.superlevel_lengths(r)
    sub = trunc.complex._subcomplex(filtration.cells[: sum(lengths)])
    record_prefix(sub, filtration, lengths)
    return sub


def retraction_preimage(trunc, apartment_cells):
    """The subcomplex of cells whose retraction image lies in the given cell set.

    The cells are indexed by their image once per truncation, on the first
    call; a query is the union of the index lists of its images.
    """
    fibres = trunc._retraction_fibres
    if fibres is None:
        fibres = trunc._retraction_fibres = {}
        for c in trunc.complex.cells():
            fibres.setdefault(trunc.retract_cell(c), []).append(c)
    keep = set()
    for img in set(apartment_cells):
        keep.update(fibres.get(img, ()))
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
    exps = trunc.exponents
    return frozenset(
        cell
        for cell in trunc.apartment_cells()
        if all(a >= b for v in cell for a, b in zip(exps[v], exps[v][1:]))
    )


def cone_chain(trunc, sector_elements, h, r):
    """The top chain of the branching cone below level r, with its certificates.

    `sector_elements` are group elements fixing the base vertex; each carries
    the standard opposite sector to the sector of one chamber at infinity
    opposite the retraction chamber.  All sectors must be realized inside the
    truncation.
    """
    std = standard_opposite_sector_cells(trunc)
    filtration = trunc.height_filtration(h)
    heights = filtration.heights
    below = h.grid(r)[0]  # a cell lies below r iff no vertex level exceeds floor(d r)
    sectors = []
    for g in sector_elements:
        moved = set()
        for cell in std:
            img = trunc.act_on_cell(g, cell)
            if img not in trunc.complex:
                # cells of the infinite sector beyond the truncation are only
                # needed up to the requested level
                if max(heights[v] for v in img) <= below:
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
    support = {
        cell
        for cell, b in branching.items()
        if len(cell) - 1 == top and b % 2 and max(heights[v] for v in cell) <= below
    }
    chain = F2Chain(top, support)
    boundary = filtration.chain_complex.boundary(chain)
    spread = 0
    for sec in sectors:
        for cell in sec:
            if len(cell) - 1 == top:
                levels = [heights[v] for v in cell]
                spread = max(spread, max(levels) - min(levels))
    eps = Fraction(spread, h.d)
    return ConeChain(
        chain=chain,
        boundary=boundary,
        epsilon=eps,
        band=(Fraction(r) - eps, Fraction(r)),
        sector_cells=tuple(sectors),
        branching=branching,
    )


def grow_truncation(n, p, radius):
    """Truncation(n, p, radius), the older spelling.

    Kept only because perfbench's tree workload grows its balls this way; it
    goes with the next benchmark change, like `HeightSpec`.
    """
    return Truncation(n, p, radius)
