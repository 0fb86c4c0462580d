"""Finite polysimplicial complexes with face incidence.

The one carrier shared by Coxeter windows, flag buildings and Bruhat-Tits
truncations.  Cells are indexed by caller-supplied canonical keys (hashable,
totally ordered within one complex); faces are recorded one codimension down,
which determines the whole face lattice since cells are polytopes, and is
the one incidence table a complex keeps: a reader that needs cofaces (`to_dot`,
`FlagComplex.thickness`) groups cells by their facets.  A complex is
built once from its cells, which validates the facets, and is not changed
after.  A subcomplex restricted from it owns only its table of cell
dimensions and shares the parent's facet table (so a restriction of a
restriction shares the root's).  A complex sorts its cells once, and keys
that do not compare make `cells()` raise ValueError.  The exports print a
cell as `label(key)`, `str` by default.
"""

import json


class CellComplex:
    def __init__(self, cells):
        """The complex on `(key, dim, facets)` triples, each key listed once.

        One pass over the cells stores the facets, refusing a repeated key;
        then each facet in the table must be a cell one dimension down.  Both
        refusals are ValueErrors.
        """
        dims, facets = {}, {}
        for key, dim, fs in cells:
            if key in dims:
                raise ValueError(f"cell {key!r} is listed twice")
            dims[key] = dim
            facets[key] = frozenset(fs)
        for key, fs in facets.items():
            d = dims[key] - 1
            for f in fs:
                if dims.get(f) != d:
                    if f not in dims:
                        raise ValueError(f"missing facet {f!r} of {key!r}")
                    raise ValueError(f"facet {f!r} of {key!r} has wrong dimension")
        self._dim, self._facets = dims, facets
        self._sorted = None  # dim (None: all) -> sorted list of cells

    # --- queries -----------------------------------------------------------

    def __contains__(self, key):
        return key in self._dim

    def __len__(self):
        return len(self._dim)

    def dim_of(self, key):
        return self._dim[key]

    @property
    def dim(self):
        return max(self._dim.values(), default=-1)

    def cells(self, dim=None):
        """The cells of one dimension, or all cells, as a new sorted list.

        Raises ValueError when the keys to be sorted do not compare.
        """
        by_dim = self._sorted
        if by_dim is None:
            groups = {}
            for k, d in self._dim.items():
                groups.setdefault(d, []).append(k)
            by_dim = self._sorted = {d: _sorted_keys(ks) for d, ks in groups.items()}
        if dim is None and None not in by_dim:
            by_dim[None] = _sorted_keys(self._dim)
        return list(by_dim.get(dim, ()))

    def facets(self, key):
        if key not in self._dim:
            raise KeyError(key)
        return self._facets[key]

    def restrict(self, keys):
        """The subcomplex on a face-closed set of cells.

        The parent was validated when it was built, so the subcomplex checks
        only closure, with one subset test per cell.
        """
        sub = self._subcomplex(keys)
        facets, kept = self._facets, sub._dim.keys()
        if not all(facets[k] <= kept for k in kept):
            raise ValueError("cell set is not face-closed")
        return sub

    def _subcomplex(self, keys):
        """The subcomplex on cells known to be face-closed: it builds only its
        table of cell dimensions and shares the parent's facet table."""
        dims = self._dim
        sub = CellComplex(())
        sub._dim = {k: dims[k] for k in keys}
        sub._facets = self._facets
        return sub

    # --- export ---------------------------------------------------------

    def to_json(self, constraints=None, label=str):
        keys = self.cells()
        ids = {k: i for i, k in enumerate(keys)}
        cells = []
        for k in keys:
            entry = {
                "id": ids[k],
                "key": label(k),
                "dim": self._dim[k],
                "faces": sorted(ids[f] for f in self.facets(k)),
            }
            if constraints is not None:
                entry["constraints"] = constraints(k)
            cells.append(entry)
        return {"cells": cells}

    def to_dot(self, chamber_dim=None, name="chambers", label=str):
        """The chamber graph: an edge for each two chambers sharing a panel."""
        d = self.dim if chamber_dim is None else chamber_dim
        keys = self.cells(d)
        ids = {k: i for i, k in enumerate(keys)}
        lines = [f"graph {name} {{"]
        by_panel = {}  # panel -> its chambers, in sorted order
        for k in keys:
            lines.append(f'  n{ids[k]} [label="{label(k)}"];')
            for f in self._facets[k]:
                by_panel.setdefault(f, []).append(k)
        seen = set()
        for panel in self.cells(d - 1):
            cs = by_panel.get(panel, ())
            for i, c in enumerate(cs):
                for e in cs[i + 1:]:
                    if (c, e) not in seen:
                        seen.add((c, e))
                        lines.append(f"  n{ids[c]} -- n{ids[e]};")
        lines.append("}")
        return "\n".join(lines)


def _sorted_keys(keys):
    try:
        return sorted(keys)
    except TypeError as err:
        raise ValueError(f"the complex's cell keys are not totally ordered: {err}") from err


def simplicial_complex(cells):
    """The complex on face-closed vertex tuples, each listed once; a facet drops a vertex."""

    def triples():
        for cell in cells:
            m = len(cell)
            yield cell, m - 1, [cell[:i] + cell[i + 1:] for i in range(m)] if m > 1 else ()

    return CellComplex(triples())


def dumps_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)
