"""Output checks.  Each returns a list of problems; an empty list means correct.

Where possible a check recomputes the answer by a route that shares no code
with the function under test: Euler characteristics from cell counts,
connected components by union-find, cycle conditions by facet parity,
verdict witnesses by dot products and a rank test, and the certify report
against a digest recorded before this benchmark existed.
"""

import hashlib
from fractions import Fraction

# `sigmabuild certify --seed 42` (JSON report plus newline), 2,515 bytes.
CERTIFY_SEED42_SHA256 = "f819c7619bb5a30972b88ed5694898c97966bdbd7da769581ab3b7fb5e0f399c"
CERTIFY_CRITERIA = (
    "steinberg-relations",
    "character-machinery",
    "coxeter-window-suite",
    "spherical-suite",
    "building-suite",
    "negative-direction-certificate",
    "positive-direction-certificate",
    "sigma-reproduction",
)

CERTAIN_IN = "certain-in"
CERTAIN_OUT = "certain-out"
CONJECTURAL_IN = "conjectural-in"


# --- certify -------------------------------------------------------------------


def certify_report(report, body, seed):
    """Report-level checks; each criterion's own `passed` is checked per op."""
    problems = []
    names = tuple(c["name"] for c in report["criteria"])
    if names != CERTIFY_CRITERIA:
        problems.append(f"criteria {names}")
    if report["passed"] is not True or report["seed"] != seed or report["suite"] != "all":
        problems.append("report header")
    if seed == 42 and hashlib.sha256(body).hexdigest() != CERTIFY_SEED42_SHA256:
        problems.append(f"seed-42 report differs ({len(body)} bytes)")
    return problems


# --- complexes --------------------------------------------------------------------


def dim_counts(cx):
    counts = {}
    for c in cx.cells():
        d = cx.dim_of(c)
        counts[d] = counts.get(d, 0) + 1
    return counts


def reduced_euler(cx):
    return sum((-1) ** d * n for d, n in dim_counts(cx).items()) - 1


def components(cx):
    """Union-find over facet incidences: {cell: root}."""
    parent = {c: c for c in cx.cells()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in parent:
        for f in cx.facets(c):
            a, b = find(c), find(f)
            if a != b:
                parent[a] = b
    return {c: find(c) for c in parent}


def is_cycle(cx, k, support):
    """k-chain with zero (reduced) boundary: facet parity, or even size when k = 0."""
    if k == 0:
        return len(support) % 2 == 0
    parity = {}
    for c in support:
        for f in cx.facets(c):
            parity[f] = parity.get(f, 0) ^ 1
    return not any(parity.values())


# --- tree-homology ------------------------------------------------------------------


def truncation(trunc, n, p, radius):
    problems = []
    if reduced_euler(trunc.complex) != 0:
        problems.append("truncation is not acyclic by cell counts")
    if n == 2:
        adj = {}
        for edge in trunc.complex.cells(1):
            a, b = edge
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        dist = {trunc.base_vertex: 0}
        frontier = [trunc.base_vertex]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj.get(v, ()):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        sizes = {}
        for d in dist.values():
            sizes[d] = sizes.get(d, 0) + 1
        for k in range(1, radius + 1):
            if sizes.get(k, 0) != (p + 1) * p ** (k - 1):
                problems.append(f"sphere {k} has {sizes.get(k, 0)} vertices")
    return problems


def superlevel(n, big, small, betti, k, trivial, witness):
    """Checks of one query: betti_vector(big) and induced_map_trivial(small, big, k)."""
    problems = []
    if len(big) == 0:
        return ["empty superlevel complex"]
    if reduced_euler(big) != sum((-1) ** d * b for d, b in enumerate(betti)):
        problems.append(f"Euler characteristic disagrees with betti {betti}")
    if n == 2 and len(betti) > 1 and betti[1] != 0:
        problems.append(f"b1 = {betti[1]} on a subforest of a tree")
    comp = components(big)
    n_comp = len(set(comp.values()))
    if betti[0] != n_comp - 1:
        problems.append(f"b0 = {betti[0]} but {n_comp} components")
    if any(c not in big for c in small.cells()):
        problems.append("small complex is not inside the big one")
        return problems
    if k == 0:
        roots = {comp[c] for c in small.cells(0)}
        if trivial != (len(roots) <= 1):
            problems.append(f"H0 map trivial={trivial}, small meets {len(roots)} big components")
    if trivial:
        if witness is not None:
            problems.append("trivial map with a witness")
        return problems
    if witness is None or witness.dim != k:
        return problems + ["non-trivial map without a degree-k witness"]
    support = witness.support
    if not support or any(c not in small or small.dim_of(c) != k for c in support):
        problems.append("witness is not a k-chain of the small complex")
    elif not is_cycle(small, k, support):
        problems.append("witness is not a cycle")
    elif k == 0:
        per_comp = {}
        for c in support:
            per_comp[comp[c]] = per_comp.get(comp[c], 0) ^ 1
        if not any(per_comp.values()):
            problems.append("0-cycle witness bounds in the big complex")
    return problems


def preimage(pre, chambers):
    problems = []
    if any(c not in pre for c in chambers):
        problems.append("a sampled chamber is missing from its own preimage")
    if any(f not in pre for c in pre.cells() for f in pre.facets(c)):
        problems.append("preimage is not face-closed")
    return problems


# --- verdict -------------------------------------------------------------------------


def _dot(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


def _rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def verdict(instance, result):
    """Compare a verdict with the planted answer of its instance."""
    kind = getattr(result, "kind", None)
    witness = getattr(result, "witness", None)
    if kind != instance["expect"]:
        return [f"kind {kind}, planted {instance['expect']}"]
    problems = []
    op = instance["op"]
    if op == "f-infinity":
        # Gordan: W is orthogonal to the strictly positive u, so W meets the
        # non-negative orthant only in 0 and no witness can exist.
        u = instance["positive"]
        if min(u) <= 0 or any(_dot(g, u) != 0 for g in instance["generators"]):
            problems.append("planted F-infinity certificate is invalid")
        if witness is not None:
            problems.append("F-infinity verdict carries a witness")
    elif op == "support":
        gens = instance["generators"]
        planted = instance["planted"]
        if witness is None:
            return ["support verdict without a witness"]
        if any(Fraction(c) < 0 for c in witness):
            problems.append("witness has a negative coordinate")
        support = [i for i, c in enumerate(witness) if c != 0]
        if support != [i for i, c in enumerate(planted) if c != 0]:
            problems.append(f"witness support {support}")
        if _rank(gens + [witness]) != _rank(gens):
            problems.append("witness is not in the span")
        if _rank([planted, witness]) != 1:
            problems.append("witness is not a multiple of the planted vector")
        if kind == CERTAIN_OUT and len(support) > instance["k"]:
            problems.append("certain-out witness exceeds support k")
    elif op == "character" and kind == CERTAIN_OUT:
        if witness is None or tuple(Fraction(c) for c in witness) != tuple(
            Fraction(c) for c in instance["chi"]
        ):
            problems.append("support-k cone witness is not the character")
    return problems


# --- alcove ------------------------------------------------------------------------------


def window_complex(cx):
    return [] if reduced_euler(cx) == 0 else ["window complex has reduced Euler characteristic != 0"]


def upper_lower(window_cells, up, low, cert):
    problems = [f"certificate {k} is false" for k, v in cert.items() if v is False]
    if not (up <= window_cells and low <= window_cells):
        problems.append("upper/lower complex leaves the window")
    return problems


def deconstruction(result, cells, residual, n_chambers):
    problems = []
    for step in result.steps:
        problems += [f"step certificate {k} is false" for k, v in step.certificates.items() if v is not True]
    if result.filtration[0] != residual:
        problems.append("filtration does not start at R(Z)")
    if result.filtration[-1] != frozenset(cells):
        problems.append("filtration does not end at Z")
    if len(result.steps) != n_chambers:
        problems.append(f"{len(result.steps)} steps for {n_chambers} chambers")
    return problems


def gates(triples):
    """Gate identity d(D,C) = d(D,g) + d(g,C) for (D, g, C, distance) triples."""
    bad = sum(1 for d, g, c, dist in triples if dist(d, c) != dist(d, g) + dist(g, c))
    return [f"{bad} gate identities fail"] if bad else []


def residual_identity(lhs, inter, r_y, r_z):
    return [] if lhs == inter & (r_y | r_z) else ["R(Y & Z) != (Y & Z) & (R(Y) | R(Z))"]
