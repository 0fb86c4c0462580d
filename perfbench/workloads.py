"""The four workloads: seeded input generation and one timed pass each.

`generate(seed)` runs before the worker reports ready, so its cost is part of
setup_s; it uses only the standard library.  `run(inputs, session)` times every
call into sigmabuild as one operation through the session and checks each
result outside the timed region.

Every pass has the same fixed shape whatever the seed: the seed picks values
inside fixed strata (height scales, planted vectors and generators, queried
cells, the order of sector tips), so passes of different seeds cost about the
same and the per-op latency quantiles line up.
"""

import random
from fractions import Fraction
from itertools import product
from time import perf_counter

import checks


# --- certify ---------------------------------------------------------------------------
# The command users run, in process: one op per criterion.  It mixes every layer
# in real proportions and carries the byte-identical report contract.

CERTIFY_LIMIT_S = 60


def gen_certify(seed):
    return {"seed": seed}


def run_certify(inputs, session):
    import sigmabuild.acceptance as acceptance
    from sigmabuild.complexes import dumps_json

    seed = inputs["seed"]
    times = []

    def timer(name, fn):
        def timed(*args, **kwargs):
            session.calibrate()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append((name, t0, perf_counter() - t0))

        return timed

    originals = {}
    for name in dir(acceptance):
        if name.startswith("criterion_"):
            originals[name] = getattr(acceptance, name)
            setattr(acceptance, name, timer(name, originals[name]))
    try:
        report, _, _, error = session.call(acceptance.certify, "all", seed)
    finally:
        for name, fn in originals.items():
            setattr(acceptance, name, fn)
    if error:
        for name, t0, dt in times:
            session.record(name, t0, dt, [error], CERTIFY_LIMIT_S)
        return
    body = (dumps_json(report) + "\n").encode()
    shared = checks.certify_report(report, body, seed)
    for (name, t0, dt), entry in zip(times, report["criteria"]):
        own = [] if entry["passed"] is True else [f"{entry['name']} failed"]
        session.record(name, t0, dt, own + shared, CERTIFY_LIMIT_S)
    session.digest(body)


# --- tree-homology -----------------------------------------------------------------------
# Building, complexes and homology do nearly all the work; linalg almost none.
# Two truncations of different working-set size, swept over seeded heights and
# levels; one query = two superlevel complexes, betti_vector, induced_map_trivial.

TREE_TRUNCATIONS = (
    # (n, p, radius, height directions, levels per height, preimages):
    # 1,455 and 367 cells
    (2, 3, 5, ((1,),), 4, 3),
    (3, 2, 3, ((1, 1), (1, 2), (2, 1)), 5, 3),
)
HEIGHT_COEFFS = (1, 2, 3, Fraction(1, 2), Fraction(3, 2))
# X>=r+t holds STEP fewer of the vertices than X>=r
STEP = 0.1
PREIMAGE_CHAMBERS = 4
TREE_LIMIT_S = 10


def gen_tree(seed):
    rng = random.Random(seed)
    out = []
    for n, p, radius, directions, n_levels, n_pre in TREE_TRUNCATIONS:
        heights = []
        for direction in directions:
            # The shape of a superlevel set depends on the height's direction
            # and on the share of vertices above the level, not on the scale.
            # Fixed directions, quantiles, steps and degrees give every seed
            # the same cost profile; the seed picks the scale.
            scale = rng.choice(HEIGHT_COEFFS)
            coeffs = tuple(scale * c for c in direction)
            levels = [((i + 0.5) / n_levels, i % (n - 1)) for i in range(n_levels)]
            heights.append((coeffs, levels))
        preimages = [[rng.random() for _ in range(PREIMAGE_CHAMBERS)] for _ in range(n_pre)]
        out.append({"n": n, "p": p, "radius": radius, "heights": heights, "preimages": preimages})
    return out


def _level_table(trunc, spec):
    """The vertex heights in descending order."""
    from sigmabuild.building import height_eval

    return sorted((height_eval(trunc, spec, v)[0] for v in trunc.complex.cells(0)), reverse=True)


def _superlevel_query(trunc, spec, r, r_small, k):
    from sigmabuild.building import superlevel_complex
    from sigmabuild.homology import betti_vector, induced_map_trivial

    big = superlevel_complex(trunc, spec, r)
    small = superlevel_complex(trunc, spec, r_small)
    betti = betti_vector(big)
    trivial, witness = induced_map_trivial(small, big, k)
    return big, small, betti, trivial, witness


def _preimage_query(trunc, picks):
    from sigmabuild.building import retraction_preimage

    chambers = trunc.complex.cells(trunc.complex.dim)
    chosen = sorted({chambers[int(x * len(chambers))] for x in picks})
    image = set()
    for c in chosen:
        faces = [
            tuple(v for i, v in enumerate(c) if mask >> i & 1) for mask in range(1, 1 << len(c))
        ]
        image.update(trunc.retract_cell(f) for f in faces)
    return chosen, retraction_preimage(trunc, image)


def run_tree(inputs, session):
    from sigmabuild.building import HeightSpec, grow_truncation

    for t in inputs:
        n, p, radius = t["n"], t["p"], t["radius"]
        trunc = session.op(
            "grow",
            TREE_LIMIT_S,
            grow_truncation,
            (n, p, radius),
            lambda tr: checks.truncation(tr, n, p, radius),
        )
        if trunc is None:
            return
        session.digest(len(trunc.chambers), len(trunc.complex))
        for coeffs, levels in t["heights"]:
            spec = HeightSpec(p, coeffs)
            table = session.op("levels", TREE_LIMIT_S, _level_table, (trunc, spec), lambda r: [])
            if not table:
                continue
            for q, k in levels:
                # X>=r holds about a share q of the vertices, X>=r+t a share q - STEP
                r, r_small = table[int(q * len(table))], table[int(max(q - STEP, 0) * len(table))]
                res = session.op(
                    "superlevel",
                    TREE_LIMIT_S,
                    _superlevel_query,
                    (trunc, spec, r, r_small, k),
                    lambda res, k=k: checks.superlevel(n, *res[:3], k, *res[3:]),
                )
                if res is not None:
                    session.digest(len(res[0]), len(res[1]), res[2], res[3])
        for picks in t["preimages"]:
            res = session.op(
                "preimage",
                TREE_LIMIT_S,
                _preimage_query,
                (trunc, picks),
                lambda res: checks.preimage(res[1], res[0]),
            )
            if res is not None:
                session.digest(len(res[1]))


# --- verdict ------------------------------------------------------------------------------
# Fourier-Motzkin subset search over SigmaContext.for_sl with dim = (n-1)|S|
# from 4 to 9; building, complexes and homology are bypassed.

PRIMES = (2, 3, 5, 7, 11, 13)
# dim -> the (n, number of primes) pairs with (n - 1) * |S| = dim
SL_SHAPES = {
    4: ((3, 2), (5, 1)),
    5: ((6, 1),),
    6: ((3, 3), (4, 2)),
    7: ((8, 1),),
    8: ((3, 4), (5, 2)),
    9: ((4, 3),),
}
# Fixed strata keep the cost profile of a pass the same for every seed.  An
# F-infinity instance of dim d makes exactly d * 2^(d-1) feasible_point calls;
# a planted support-s instance scans the smaller supports first and stops
# early.  The counts put the median inside the 24 dim-5 F-infinity ops (20
# cheaper ops below, 20 dearer above) and the tail inside the dim-6 ones.
F_INFINITY_DIMS = (4,) * 4 + (5,) * 24 + (6,) * 12 + (7,) * 4 + (8, 8, 9, 9)
SUPPORT_DIMS = ((4, 1), (6, 1), (8, 1), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2))
CHARACTER_DIMS = (4, 5, 6, 7, 8, 9, 5, 7)
VERDICT_LIMIT_S = 10


def _context(rng, dim):
    n, n_primes = rng.choice(SL_SHAPES[dim])
    primes = tuple(sorted(rng.sample(PRIMES, n_primes)))
    # the positive direction is unconditional iff every p >= 2^(n-2)
    sol = all(p >= 2 ** (n - 2) for p in primes)
    return n, primes, sol


def _orthogonal(rng, u):
    """A non-zero integer vector orthogonal to u (so of mixed signs when u > 0).

    A sum of three u_j e_i - u_i e_j terms keeps the entries small, so the
    cost of exact arithmetic on them varies little from seed to seed.
    """
    while True:
        w = [0] * len(u)
        for _ in range(3):
            i, j = rng.sample(range(len(u)), 2)
            c = rng.choice((1, 2))
            w[i] += c * u[j]
            w[j] -= c * u[i]
        if any(w):
            return w


def _support_kind(s, k, sol):
    if s <= k:
        return checks.CERTAIN_OUT
    return checks.CERTAIN_IN if sol else checks.CONJECTURAL_IN


def gen_verdict(seed):
    rng = random.Random(seed)
    out = []
    for dim in F_INFINITY_DIMS:
        n, primes, sol = _context(rng, dim)
        u = [rng.randint(1, 5) for _ in range(dim)]
        gens = [_orthogonal(rng, u) for _ in range(2)]
        out.append(
            dict(op="f-infinity", n=n, primes=primes, k=rng.randint(1, dim),
                 generators=gens, positive=u, expect=checks.CERTAIN_IN)
        )
    for dim, s in SUPPORT_DIMS:
        n, primes, sol = _context(rng, dim)
        inside = set(rng.sample(range(dim), s))
        rest = [i for i in range(dim) if i not in inside]
        planted = [rng.randint(1, 5) if i in inside else 0 for i in range(dim)]
        # directions on the complement orthogonal to a positive vector there:
        # the planted ray is then the only non-negative part of the span
        u_rest = [rng.randint(1, 5) for _ in rest]
        others = []
        for _ in range(min(2, len(rest) - 1)):
            w_rest = _orthogonal(rng, u_rest)
            w = [0] * dim
            for i, x in zip(rest, w_rest):
                w[i] = x
            others.append(w)
        gens = [[a + b for a, b in zip(planted, others[0])]] + others if others else [planted]
        k = rng.randint(1, dim)
        out.append(
            dict(op="support", n=n, primes=primes, k=k, generators=gens,
                 planted=planted, expect=_support_kind(s, k, sol))
        )
    for j, dim in enumerate(CHARACTER_DIMS):
        n, primes, sol = _context(rng, dim)
        k = rng.randint(1, dim - 1)
        shape = j % 3
        if shape == 0:  # inside the forbidden support-k cone
            s = rng.randint(1, k)
            expect = checks.CERTAIN_OUT
        elif shape == 1:  # a negative coefficient
            s = rng.randint(2, dim)
            expect = checks.CERTAIN_IN
        else:  # non-negative with support beyond k
            s = rng.randint(k + 1, dim)
            expect = _support_kind(s, k, sol)
        chi = [0] * dim
        for i in rng.sample(range(dim), s):
            chi[i] = rng.randint(1, 5)
        if shape == 1:
            i = next(i for i, c in enumerate(chi) if c)
            chi[i] = -chi[i]
        out.append(dict(op="character", n=n, primes=primes, k=k, chi=chi, expect=expect))
    rng.shuffle(out)
    return out


def run_verdict(inputs, session):
    from sigmabuild.sigma import SigmaContext, finiteness_type, sigma_verdict

    for inst in inputs:
        ctx = SigmaContext.for_sl(inst["n"], inst["primes"])
        if inst["op"] == "character":
            fn, args = sigma_verdict, (ctx, inst["chi"], inst["k"])
        else:
            fn, args = finiteness_type, (ctx, inst["generators"], inst["k"])
        result = session.op(
            inst["op"], VERDICT_LIMIT_S, fn, args, lambda v, inst=inst: checks.verdict(inst, v)
        )
        if result is not None:
            session.digest(result.kind, result.witness)


# --- alcove --------------------------------------------------------------------------------
# Thousands of distinct feasible_point problems with at most 3 variables plus
# the AlcoveGeometry caches: the opposite use of linalg from `verdict`.
# Queries are drawn with replacement from small pools, so they share cells.

ALCOVE_GEOMETRIES = (
    # (family, rank, window radius, {query kind: count})
    ("A", 2, 3, {"upper-lower": 3, "deconstruct": 3, "gate": 60, "residual": 10}),
    ("C", 2, 2, {"upper-lower": 3, "deconstruct": 3, "gate": 60, "residual": 10}),
    # One A3 upper/lower query costs about a second, mostly FM.  Above the 8
    # A3 deconstructions (one per tip) sit only the 3 windows and 2 A3
    # upper/lower queries, so the tail (11th largest op) falls inside the
    # deconstructions, and the median inside the 180 gates.
    ("A", 3, 1, {"upper-lower": 2, "deconstruct": 8, "gate": 60, "residual": 10}),
)
POOL = 12  # distinct cells / chambers queries are drawn from
DECONSTRUCT_DEPTH = 4  # chambers of the sector subcomplex, as deep as certify goes
UPPER_LOWER_DIRECTIONS = ((1, 1, 1), (1, 2, 1), (2, 1, 3))
ALCOVE_LIMIT_S = 30


def gen_alcove(seed):
    rng = random.Random(seed)
    out = []
    for family, rank, radius, counts in ALCOVE_GEOMETRIES:
        # sector tips with every simple-root coordinate in {0, 1}: their
        # opposite sectors meet even the smallest window, in seeded order
        tips = list(product((0, 1), repeat=rank))
        rng.shuffle(tips)
        queries = []
        for kind, count in counts.items():
            for i in range(count):
                if kind == "upper-lower":
                    # fixed directions and levels, seeded scale: the complexes,
                    # and so the cost, do not depend on the scale
                    scale = rng.choice(HEIGHT_COEFFS)
                    lam = tuple(-scale * c for c in UPPER_LOWER_DIRECTIONS[i][:rank])
                    q = (lam, -scale * (1 + i))
                elif kind == "deconstruct":
                    q = (tips[i % len(tips)], DECONSTRUCT_DEPTH)
                elif kind == "gate":
                    q = (rng.randrange(POOL), rng.randrange(POOL))
                else:
                    q = tuple(rng.randrange(POOL) for _ in range(8))
                queries.append((kind, q))
        rng.shuffle(queries)
        out.append({"family": family, "rank": rank, "radius": radius, "pools": rng.random(),
                    "queries": queries})
    return out


def _window(family, rank, radius):
    from sigmabuild.coxeter import AlcoveGeometry
    from sigmabuild.root_system import build_root_system
    from sigmabuild.windows import Window

    datum = build_root_system(family, rank)
    window = Window.radius(datum, radius, AlcoveGeometry(datum))
    window.cells()
    return window


def _sector_subcomplex(window, sigma, coeffs, depth):
    from sigmabuild.windows import closed_sector_cells, deconstruct

    g, datum = window.geometry, window.datum
    tip = tuple(
        sum((Fraction(a) * w[j] for a, w in zip(coeffs, datum.coweight_dirs)), Fraction(0))
        for j in range(datum.rank)
    )
    sector = closed_sector_cells(window, tip, sigma.opposite())
    anchor = g.project_toward(g.cell_of_point(tip), sigma.opposite())
    chosen = sorted(
        (c for c in sector if g.is_chamber(c)), key=lambda c: (g.wall_distance(c, anchor), c)
    )[:depth]
    z = set()
    for c in chosen:
        z |= g.closure(c)
    return frozenset(z), len(chosen), deconstruct(g, frozenset(z), sigma)


def run_alcove(inputs, session):
    from sigmabuild.windows import HeightForm, residual_r, upper_lower_certified

    for geo in inputs:
        args = (geo["family"], geo["rank"], geo["radius"])
        window = session.op(
            "window", ALCOVE_LIMIT_S, _window, args, lambda w: checks.window_complex(w.complex())
        )
        if window is None:
            return
        g = window.geometry
        sigma = g.base_chamber_at_infinity()
        cells = window.cells()
        # query pools: a seeded slice of the sorted cells and chambers
        ordered = sorted(cells)
        chambers = sorted(window.chambers())
        start = int(geo["pools"] * len(ordered))
        cell_pool = [ordered[(start + i) % len(ordered)] for i in range(POOL)]
        start = int(geo["pools"] * len(chambers))
        chamber_pool = [chambers[(start + i * 5) % len(chambers)] for i in range(POOL)]
        session.digest(len(cells))
        stars = {a: [d for d in chambers if a in g.closure(d)] for a in cell_pool}
        for kind, q in geo["queries"]:
            if kind == "upper-lower":
                lam, r = q
                res = session.op(
                    kind, ALCOVE_LIMIT_S, upper_lower_certified, (window, HeightForm(lam), r),
                    lambda res: checks.upper_lower(cells, *res),
                )
                if res is not None:
                    session.digest(len(res[0]), len(res[1]))
            elif kind == "deconstruct":
                res = session.op(
                    kind, ALCOVE_LIMIT_S, _sector_subcomplex, (window, sigma, *q),
                    lambda res: checks.deconstruction(res[2], res[0], residual_r(g, res[0], sigma), res[1]),
                )
                if res is not None:
                    session.digest(len(res[0]), len(res[2].steps))
            elif kind == "gate":
                a, c = cell_pool[q[0]], chamber_pool[q[1]]
                res = session.op(
                    kind, ALCOVE_LIMIT_S, g.project_to_cell, (a, c),
                    lambda gate: checks.gates((d, gate, c, g.wall_distance) for d in stars[a]),
                )
                if res is not None:
                    session.digest(res)
            else:
                y, z = set(), set()
                for i in q[:4]:
                    y |= g.closure(chamber_pool[i])
                for i in q[4:]:
                    z |= g.closure(chamber_pool[i])
                y, z = frozenset(y), frozenset(z)
                inter = y & z
                res = session.op(
                    kind, ALCOVE_LIMIT_S, residual_r, (g, inter, sigma),
                    lambda res: checks.residual_identity(
                        res, inter, residual_r(g, y, sigma), residual_r(g, z, sigma)
                    ),
                )
                if res is not None:
                    session.digest(len(res))


WORKLOADS = {
    "certify": (gen_certify, run_certify),
    "tree-homology": (gen_tree, run_tree),
    "verdict": (gen_verdict, run_verdict),
    "alcove": (gen_alcove, run_alcove),
}
