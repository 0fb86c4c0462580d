"""The certification suites: one callable per acceptance criterion.

Each criterion returns a deterministic report dict {"name", "passed",
"details"}; `certify` bundles them per suite.  All randomized checks are
seeded, so a fixed seed yields a byte-identical report (timings are kept out
of the deterministic core and only attached on request).
"""

import random
import time
from fractions import Fraction

from .building import Truncation, cone_chain, retraction_preimage, superlevel_complex
from .chevalley import (
    CharacterVec,
    character_eval,
    h_elem,
    identity_element,
    torus_projection,
    w_elem,
    x_elem,
)
from .coxeter import AlcoveGeometry, GeometryError
from .homology import betti_vector, bounds, induced_map_trivial
from .root_system import build_root_system, cartan_pairing
from .sigma import CERTAIN_IN, CERTAIN_OUT, SigmaContext, finiteness_type
from .spherical import FlagComplex, find_opposite_apartment
from .windows import (
    HeightForm,
    Window,
    closed_sector_cells,
    deconstruct,
    residual_r,
    upper_complex,
    upper_lower_certified,
)


def _rand_rational(rng, nonzero=False):
    while True:
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if not nonzero or x != 0:
            return x


def criterion_steinberg(seed=42, trials=200):
    """Relations (a), (d), (e) for SL_2 and SL_3; single-factor commutator for A_2."""
    rng = random.Random(seed)
    failures = []
    for n in (2, 3):
        datum = build_root_system("A", n - 1)
        roots = datum.all_roots
        for t in range(trials):
            alpha = roots[rng.randrange(len(roots))]
            beta = roots[rng.randrange(len(roots))]
            s = _rand_rational(rng)
            u = _rand_rational(rng)
            tt = _rand_rational(rng, nonzero=True)
            # (a) additivity
            if x_elem(n, alpha, s) * x_elem(n, alpha, u) != x_elem(n, alpha, s + u):
                failures.append(("a", n, t))
            # (d) conjugation by omega
            omega = w_elem(n, alpha, 1)
            c = cartan_pairing(datum, beta, alpha)
            refl = tuple(b - c * a for b, a in zip(beta, alpha))
            conj = omega * x_elem(n, beta, s) * omega.inv()
            if conj not in (x_elem(n, refl, s), x_elem(n, refl, -s)):
                failures.append(("d", n, t))
            # (e) torus conjugation
            lhs = h_elem(n, alpha, tt) * x_elem(n, beta, s) * h_elem(n, alpha, tt).inv()
            if lhs != x_elem(n, beta, tt ** c * s):
                failures.append(("e", n, t))
    # (b): the A_2 commutator has a single factor with coefficient +- s t
    comm_ok = True
    for t in range(trials):
        s = _rand_rational(rng, nonzero=True)
        u = _rand_rational(rng, nonzero=True)
        comm = x_elem(3, (1, 0), s).commutator(x_elem(3, (0, 1), u))
        if comm not in (x_elem(3, (1, 1), s * u), x_elem(3, (1, 1), -s * u)):
            comm_ok = False
    passed = not failures and comm_ok
    return {
        "name": "steinberg-relations",
        "passed": passed,
        "details": {"trials": trials, "failures": failures, "commutator_single_factor": comm_ok},
    }


def criterion_characters(seed=42):
    """Torus commutator power identity, multiplicative projection, character laws."""
    rng = random.Random(seed)
    power_ok = True
    for p in (2, 3, 5):
        for _ in range(50):
            s = _rand_rational(rng, nonzero=True)
            lhs = h_elem(2, (1,), p).commutator(x_elem(2, (1,), s))
            if lhs != x_elem(2, (1,), s) ** (p * p - 1):
                power_ok = False
    primes = (2, 5)
    positive_roots = build_root_system("A", 2).positive_roots

    def s_rational():
        """A random element of Z[1/10]: numerator at most 20, denominator dividing 100."""
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, 2)
        return Fraction(rng.randint(-20, 20), den)

    def random_borel():
        """A random element of B(Z[1/10]) in SL_3: unipotent factors, then torus factors."""
        g = identity_element(3)
        for root in positive_roots:
            g = g * x_elem(3, root, s_rational())
        for root in ((1, 0), (0, 1)):
            g = g * h_elem(3, root, Fraction(rng.choice(primes)) ** rng.randint(-2, 2))
        return g

    delta_ok = True
    for _ in range(100):
        g1, g2 = random_borel(), random_borel()
        if torus_projection(g1 * g2) != torus_projection(g1) * torus_projection(g2):
            delta_ok = False
    chi = CharacterVec(3, primes, {(1, 2): 1, (2, 5): Fraction(3, 2)})
    additive_ok = True
    unipotent_ok = True
    for _ in range(50):
        g1, g2 = random_borel(), random_borel()
        if character_eval(chi, g1 * g2) != character_eval(chi, g1) + character_eval(chi, g2):
            additive_ok = False
        u = x_elem(3, (1, 0), s_rational()) * x_elem(3, (0, 1), s_rational())
        if character_eval(chi, u) != 0:
            unipotent_ok = False
    passed = power_ok and delta_ok and additive_ok and unipotent_ok
    return {
        "name": "character-machinery",
        "passed": passed,
        "details": {
            "torus_commutator_power": power_ok,
            "delta_multiplicative": delta_ok,
            "character_additive": additive_ok,
            "vanishes_on_unipotents": unipotent_ok,
        },
    }


def criterion_coxeter(seed=42):
    """The A_2 window suite: interval property, gate identity, certified
    deconstructions, and the residual intersection identity."""
    rng = random.Random(seed)
    datum = build_root_system("A", 2)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 4, g)
    sigma = g.base_chamber_at_infinity()
    chambers = sorted(window.chambers())

    # (i) interval property for all chambers of the window
    interval_ok = True
    for c in chambers:
        up = g.upper_face(c, sigma)
        interval = {a for a in g.closure(c) if up in g.closure(a)}
        projecting = {a for a in g.closure(c) if g.project_toward(a, sigma) == c}
        if interval != projecting:
            interval_ok = False

    # (ii) gate identity on a radius-3 ball
    base = g.cell_of_point(datum.point((Fraction(1, 3),) * datum.rank))
    ball = [c for c in chambers if g.wall_distance(c, base) <= 3]
    ball_cells = g.closure_of(ball)
    gate_ok = True
    checked = 0
    for a in sorted(ball_cells):
        star_chambers = [c for c in ball if a in g.closure(c)]
        for c in ball:
            gate = g.project_to_cell(a, c)
            for d in star_chambers:
                lhs = g.wall_distance(d, c)
                rhs = g.wall_distance(d, gate) + g.wall_distance(gate, c)
                checked += 1
                if lhs != rhs:
                    gate_ok = False

    # (iii) 20 seeded sigma-convex subcomplexes, certified deconstruction
    decon_ok = True
    decon_count = 0
    instances = []
    for i in range(12):
        a, b = rng.randint(-1, 2), rng.randint(-1, 2)
        tip = datum.point((a, b))
        depth = rng.randint(2, 4)
        sector = closed_sector_cells(window, tip, sigma.opposite())
        anchor = g.project_toward(g.cell_of_point(tip), sigma.opposite())
        chosen = sorted(
            (c for c in sector if g.is_chamber(c)),
            key=lambda c: (g.wall_distance(c, anchor), c),
        )[:depth]
        instances.append(g.closure_of(chosen))
    for i in range(8):
        lam = (-Fraction(rng.randint(1, 3)), -Fraction(rng.randint(1, 3)))
        h = HeightForm(lam)
        r = Fraction(rng.randint(-3, -1))
        _, low, _ = upper_lower_certified(window, h, r)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        tip = datum.point((a, b))
        sector = closed_sector_cells(window, tip, sigma.opposite())
        instances.append(frozenset(low) & sector)
    for z in instances:
        if not z:
            continue
        try:
            result = deconstruct(g, z, sigma)
        except GeometryError:
            decon_ok = False
            continue
        decon_count += 1
        for step in result.steps:
            if not all(step.certificates.values()):
                decon_ok = False
        if result.residual != residual_r(g, z, sigma):
            decon_ok = False

    # (iv) residual of intersections on 50 random pairs
    residual_ok = True
    for _ in range(50):
        y = g.closure_of(rng.sample(chambers, 4))
        z = g.closure_of(rng.sample(chambers, 4))
        inter = y & z
        lhs = residual_r(g, inter, sigma)
        rhs = inter & (residual_r(g, y, sigma) | residual_r(g, z, sigma))
        if lhs != rhs:
            residual_ok = False

    passed = interval_ok and gate_ok and decon_ok and residual_ok
    return {
        "name": "coxeter-window-suite",
        "passed": passed,
        "details": {
            "interval_property": interval_ok,
            "gate_identity": gate_ok,
            "gate_triples_checked": checked,
            "deconstructions_certified": decon_count,
            "deconstruction_ok": decon_ok,
            "residual_intersection": residual_ok,
        },
    }


def criterion_spherical():
    """Flag-building counts, opposition homology, opposite-apartment search."""
    fano = FlagComplex(3, 2)
    count_ok = len(fano.chambers) == (2**2 + 2 + 1) * (2 + 1)
    thickness_ok = fano.thickness() == (3, 3)
    opp_ok = True
    for chamber in fano.chambers:
        bv = betti_vector(fano.opposition_complex(chamber))
        if bv[0] != 0 or bv[1] < 1:
            opp_ok = False
    b7 = FlagComplex(3, 7)
    ap, guaranteed = find_opposite_apartment(b7, b7.chambers[0])
    search_ok = guaranteed and ap is not None and ap.chamber_count == 6
    passed = count_ok and thickness_ok and opp_ok and search_ok
    return {
        "name": "spherical-suite",
        "passed": passed,
        "details": {
            "fano_chambers": len(fano.chambers),
            "fano_count_matches_closed_form": count_ok,
            "thickness": list(fano.thickness()),
            "opposition_connected_noncontractible": opp_ok,
            "q7_apartment_found_with_guarantee": search_ok,
        },
    }


def criterion_building(seed=42):
    """SL_2 truncations: sphere counts, retraction laws, height equivariance."""
    rng = random.Random(seed)
    sphere_ok = True
    for p in (2, 3):
        sizes = [len(layer) for layer in Truncation(2, p, 5).vertex_layers()]
        if sizes[1:5] != [(p + 1) * p ** (k - 1) for k in range(1, 5)]:
            sphere_ok = False

    trunc = Truncation(2, 2, 4)
    idem_ok = True
    for cell in trunc.complex.cells():
        img = trunc.retract_cell(cell)
        bary = trunc.geometry.barycenter(img)
        if trunc.geometry.cell_of_point(bary) != img:
            idem_ok = False
    bij_ok = True
    for t in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
        u = x_elem(2, (1,), t)
        seen = {}
        for cell in trunc.apartment_cells():
            moved = trunc.act_on_cell(u, cell)
            if moved in trunc.complex:
                img = trunc.retract_cell(moved)
                if img != trunc.retract_cell(cell):
                    bij_ok = False
                if img in seen and seen[img] != moved:
                    bij_ok = False
                seen[img] = moved

    p = 3
    trunc3 = Truncation(2, p, 4)
    h = HeightForm((Fraction(-2),))
    chi = h.equivariant_character(2, p)
    equi_ok = True
    cells0 = trunc3.complex.cells(0)
    for _ in range(20):
        gamma = h_elem(2, (1,), Fraction(p) ** rng.randint(-1, 1))
        value = character_eval(chi, gamma)
        (v,) = rng.choice(cells0)
        moved = trunc3.act_on_vertex(gamma, v)
        at_moved, at_v = (Fraction(h.level(trunc3.root_values(x)), h.d) for x in (moved, v))
        if at_moved != at_v + value:
            equi_ok = False

    passed = sphere_ok and idem_ok and bij_ok and equi_ok
    return {
        "name": "building-suite",
        "passed": passed,
        "details": {
            "sphere_counts": sphere_ok,
            "retraction_idempotent": idem_ok,
            "apartment_bijective": bij_ok,
            "height_equivariance": equi_ok,
        },
    }


def criterion_negative_direction():
    """The cone-chain certificate on the p = 2 tree at radius 6."""
    p = 2
    trunc = Truncation(2, p, 6)
    h = HeightForm((Fraction(-1),))
    r = 4
    cc = cone_chain(trunc, [identity_element(2), x_elem(2, (1,), 1)], h, r)
    nonzero_ok = bool(cc.boundary)
    band_ok = True
    for v in cc.boundary.support:
        val = Fraction(h.level(trunc.root_values(v[0])), h.d)
        if not (cc.band[0] <= val <= cc.band[1]):
            band_ok = False
    s, t = 1, 2
    small = superlevel_complex(trunc, h, s + t)
    big = superlevel_complex(trunc, h, s)
    in_small = all(v in small for v in cc.boundary.support)
    nonbounding_ok = not bounds(big, cc.boundary)
    trivial, witness = induced_map_trivial(small, big, 0)
    induced_ok = (not trivial) and witness is not None
    passed = nonzero_ok and band_ok and in_small and nonbounding_ok and induced_ok
    return {
        "name": "negative-direction-certificate",
        "passed": passed,
        "details": {
            "boundary_nonzero": nonzero_ok,
            "boundary_in_band": band_ok,
            "cycle_in_small_superlevel": in_small,
            "not_bounding_in_big": nonbounding_ok,
            "induced_map_nontrivial": induced_ok,
            "band": [str(cc.band[0]), str(cc.band[1])],
            "margins": {"radius": 6, "level": r, "epsilon": str(cc.epsilon)},
        },
    }


def criterion_positive_direction():
    """Preimages of upper complexes: nonempty for the tree, connected for SL_3."""
    p = 2
    trunc = Truncation(2, p, 5)
    window = Window(trunc.datum, [-5], [4], trunc.geometry)
    tree_ok = True
    tree_checked = 0
    for lam in (1, 2, 3, Fraction(1, 2), Fraction(5, 2)):
        h = HeightForm((-Fraction(lam),))
        for r in (-2, -1, 0):
            up = upper_complex(window, h, Fraction(r) * Fraction(lam))
            pre = retraction_preimage(trunc, up)
            tree_checked += 1
            if len(pre.cells()) == 0:
                tree_ok = False
    radius3 = 3
    margin = 1
    trunc3 = Truncation(3, p, radius3)
    window3 = Window(trunc3.datum, [-radius3 - 1] * 2, [radius3] * 2, trunc3.geometry)
    sl3_ok = True
    sl3_checked = 0
    heights = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -2)]
    for lam in heights:
        h = HeightForm(tuple(Fraction(x) for x in lam))
        for r in (-4, -3, -2):
            up = upper_complex(window3, h, r)
            pre = retraction_preimage(trunc3, up)
            sl3_checked += 1
            if not core_connected(trunc3, pre, radius3 - margin):
                sl3_ok = False
    return {
        "name": "positive-direction-certificate",
        "passed": tree_ok and sl3_ok,
        "details": {
            "tree_preimages_nonempty": tree_ok,
            "tree_cases": tree_checked,
            "margins": {
                "tree_radius": 5,
                "window": [-5, 4],
                "sl3_radius": radius3,
                "sl3_rim_margin": margin,
            },
            "sl3_preimages_connected_with_margin": sl3_ok,
            "sl3_cases": sl3_checked,
        },
    }


def core_connected(trunc, pre, depth):
    """Are the cells of `pre` within `depth` of the base chamber in the base vertex's component?

    Such a cell has its vertices within `depth` too, so it suffices that the
    base vertex is in `pre` and H_0(core) -> H_0(pre) is trivial.
    """
    if (trunc.base_vertex,) not in pre:
        return False
    core = pre.restrict(v for v in pre.cells(0) if trunc.cell_distance[v] <= depth)
    return induced_map_trivial(core, pre, 0)[0]


def criterion_sigma():
    """The three worked subgroup examples reproduce exactly."""
    ctx1 = SigmaContext.for_sl(3, (5,))
    h1 = finiteness_type(ctx1, [(1, -1)], 10)
    h1_ok = h1.kind == CERTAIN_IN and "infinity" in h1.justification

    ctx2 = SigmaContext.for_sl(3, (2, 3))
    chi2 = (1, 1, 1, 3)
    h2_not_f4 = finiteness_type(ctx2, [chi2], 4)
    h2_f3 = finiteness_type(ctx2, [chi2], 3)
    h2_ok = h2_not_f4.kind == CERTAIN_OUT and h2_f3.kind == CERTAIN_IN and h2_f3.certain

    ones = (1, 1, 1, 1)
    h3_not_f4 = finiteness_type(ctx2, [ones], 4)
    h3_f3 = finiteness_type(ctx2, [ones], 3)
    h3_ok = h3_not_f4.kind == CERTAIN_OUT and h3_f3.kind == CERTAIN_IN and h3_f3.certain

    passed = h1_ok and h2_ok and h3_ok
    return {
        "name": "sigma-reproduction",
        "passed": passed,
        "details": {
            "kernel_mixed_signs_f_infinity": h1_ok,
            "support4_f3_not_f4": h2_ok,
            "all_ones_not_f4_but_f3": h3_ok,
        },
    }


SUITES = {
    "relations": ("steinberg", "characters"),
    "coxeter": ("coxeter",),
    "spherical": ("spherical",),
    "building": ("building", "negative", "positive"),
    "sigma": ("sigma",),
}
SUITES["all"] = SUITES["relations"] + SUITES["coxeter"] + SUITES["spherical"] + SUITES["building"] + SUITES["sigma"]


def certify(suite="all", seed=42, with_timings=False):
    """Run a certification suite; deterministic report, optional timings."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    runners = {
        "steinberg": lambda: criterion_steinberg(seed),
        "characters": lambda: criterion_characters(seed),
        "coxeter": lambda: criterion_coxeter(seed),
        "spherical": criterion_spherical,
        "building": lambda: criterion_building(seed),
        "negative": criterion_negative_direction,
        "positive": criterion_positive_direction,
    }
    runners["sigma"] = criterion_sigma
    report = {"suite": suite, "seed": seed, "criteria": []}
    timings = {}
    for key in SUITES[suite]:
        t0 = time.perf_counter()
        entry = runners[key]()
        timings[entry["name"]] = round(time.perf_counter() - t0, 3)
        report["criteria"].append(entry)
    report["passed"] = all(c["passed"] for c in report["criteria"])
    if with_timings:
        report["timings"] = timings
    return report
