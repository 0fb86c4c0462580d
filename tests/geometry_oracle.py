"""Chamber adjacency, gallery distances, special vertices, height values and
projections by a step from the barycenter.

Reference code that only tests use, shared by the alcove, flag-building and
truncation tests.
"""

from sigmabuild.coxeter import _entry
from sigmabuild.linalg import Q1


def panel_neighbors(complex_, chamber):
    """The chambers of a frozen complex that share a panel with the chamber."""
    return {nb for panel in complex_.facets(chamber) for nb in complex_.cofacets(panel)} - {chamber}


def gallery_distances(neighbors, start):
    """Gallery distance from the start chamber to every chamber it reaches, by BFS.

    `neighbors(c)` gives the chambers adjacent to c.
    """
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in neighbors(cur):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def is_special_vertex(geometry, x):
    """Special vertex: integral against every root (meets every wall class)."""
    return all(v.denominator == 1 for v in geometry._values(x))


def height_value(h, geometry, x):
    """The height of an apartment point, read from its simple-root values."""
    return h(geometry.root_value(x, i) for i in geometry._simple_idx)


def project_dir(geometry, cell, u, limit=None):
    """The cell of the points just past the barycenter along a direction.

    u gives the direction's positive-root values.  Each root's value moves
    from v by r per unit; half the least step to a wall (a full unit from
    a wall the barycenter lies on), capped by `limit`, stays inside the
    projection.
    """
    x0 = geometry._bary_values(cell)
    steps = [((-v if r > 0 else v) % 1 or Q1) / abs(r) for v, r in zip(x0, u) if r]
    if not steps:
        return cell  # direction parallel to every wall through the cell
    eps = (min(steps) if limit is None else min(*steps, limit)) / 2
    ys = (v + eps * r for v, r in zip(x0, u))
    return tuple(_entry(y.numerator, y.denominator) for y in ys)


def project_toward_by_step(geometry, cell, tau):
    """pr_cell(tau) by a step from the barycenter along tau's direction."""
    return project_dir(geometry, cell, geometry._values(tau.direction))


def project_to_cell_by_step(geometry, cell, target):
    """Gate projection pr_cell(target) by a step toward the barycenter of target."""
    u = tuple(b - a for a, b in zip(geometry._bary_values(cell), geometry._bary_values(target)))
    if not any(u):
        return cell
    return project_dir(geometry, cell, u, limit=Q1)
