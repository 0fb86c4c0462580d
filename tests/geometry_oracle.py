"""Chamber adjacency, gallery distances, special vertices and height values.

Reference code that only tests use, shared by the alcove, flag-building and
truncation tests.
"""


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
