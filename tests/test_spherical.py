"""Flag buildings over F_q: counts, thickness, opposition, apartment search."""

import functools
import math
import random
from itertools import combinations

import pytest
from geometry_oracle import gallery_distances, panel_neighbors

from sigmabuild.complexes import simplicial_complex
from sigmabuild.homology import betti_vector
from sigmabuild.sigma import SigmaError, prime_threshold
from sigmabuild.spherical import (
    FlagComplex,
    SphericalError,
    all_subspaces,
    apartment_from_frame,
    find_opposite_apartment,
    frame_is_opposite_chamber,
    rref,
    span_rank,
)


def gaussian_binomial(n, d, q):
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subspace_counts():
    assert len(all_subspaces(3, 2, 1)) == 7
    assert len(all_subspaces(3, 2, 2)) == 7
    assert len(all_subspaces(3, 3, 1)) == 13
    assert len(all_subspaces(4, 2, 2)) == gaussian_binomial(4, 2, 2) == 35


def test_rank_one_building():
    b = FlagComplex(2, 2)
    assert len(b.chambers) == 3  # points of the projective line
    assert b.thickness() == (3, 3)


def flag_count(n, q):
    """Independent chamber-count oracle: extend flags one dimension at a time."""
    count = 1
    for k in range(2, n + 1):
        count *= (q**k - 1) // (q - 1)
    return count


def test_fano_building_counts():
    b = FlagComplex(3, 2)
    assert len(b.subspaces[1]) == 7
    assert len(b.subspaces[2]) == 7
    assert len(b.chambers) == flag_count(3, 2) == 21
    assert b.thickness() == (3, 3)


def test_q3_building_counts():
    b = FlagComplex(3, 3)
    assert len(b.subspaces[1]) == 13
    assert len(b.chambers) == flag_count(3, 3) == 52
    assert b.thickness() == (4, 4)


def bottom_up_chambers(n, q):
    """Reference flags: grow chains from the lines up, scanning every subspace for containment."""
    chains = [(s,) for s in all_subspaces(n, q, 1)]
    for d in range(2, n):
        spaces = all_subspaces(n, q, d)
        chains = [chain + (s,) for chain in chains for s in spaces if span_rank(s + chain[-1], q) == d]
    return sorted(chains)


REFERENCE_SIZES = [(2, 2), (2, 5), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3)]


@functools.cache
def reference_flag_complex(n, q):
    """The faces of the bottom-up flags: the reference flag complex."""
    flags = bottom_up_chambers(n, q)
    return flags, simplicial_complex({f for flag in flags for k in range(1, n) for f in combinations(flag, k)})


def reference_opposition_complex(n, q, chamber):
    """The restriction of the reference flag complex to the vertices opposite
    the chamber: a d-space spanning F_q^n with its (n - d)-dimensional member."""
    members = ((),) + chamber
    cx = reference_flag_complex(n, q)[1]
    opposite = {v for (v,) in cx.cells(0) if span_rank(v + members[n - len(v)], q) == n}
    return cx.restrict(cell for cell in cx.cells() if set(cell) <= opposite)


def assert_same_complex(cx, ref):
    """Cell for cell and facet for facet."""
    assert cx.cells() == ref.cells()
    for cell in ref.cells():
        assert cx.dim_of(cell) == ref.dim_of(cell)
        assert cx.facets(cell) == ref.facets(cell)


def seeded_chambers(b, seed, k):
    """Chamber 0 and k more, drawn with a fixed seed."""
    rng = random.Random(seed)
    return [b.chambers[0]] + rng.sample(b.chambers[1:], k)


@pytest.mark.parametrize("n, q", REFERENCE_SIZES)
def test_top_down_flags_match_bottom_up_scan(n, q):
    assert FlagComplex(n, q).chambers == reference_flag_complex(n, q)[0]


@pytest.mark.parametrize("n, q", REFERENCE_SIZES)
def test_chain_builder_matches_the_faces_of_the_flags(n, q):
    b = FlagComplex(n, q)
    assert_same_complex(b.complex(), reference_flag_complex(n, q)[1])
    for chamber in seeded_chambers(b, 10 * n + q, 2):
        opp = b.opposition_complex(chamber)
        assert_same_complex(opp, reference_opposition_complex(n, q, chamber))
        # Opp(C) is the closure of the chambers opposite C, q^(n(n-1)/2) of them
        far = [d for d in b.chambers if cell_opposite_to_face(b, d, chamber)]
        assert len(far) == q ** (n * (n - 1) // 2)
        assert opp.cells(n - 2) == far
        assert set(opp.cells()) == {f for d in far for k in range(1, n) for f in combinations(d, k)}


@pytest.mark.parametrize(
    "n, q, betti",
    [(3, 2, [0, 1]), (4, 2, [0, 2, 1]), (4, 3, [0, 0, 134]), (5, 2, [0, 0, 32, 1])],
)
def test_opposition_complex_homology(n, q, betti):
    # reduced F_2 Betti vectors of Opp(C), the same on every chamber checked
    b = FlagComplex(n, q)
    for chamber in seeded_chambers(b, 7 * n + q, 3):
        assert betti_vector(b.opposition_complex(chamber)) == betti


def test_a3_q5_chamber_count():
    # complete flags of F_5^4: a hyperplane, a plane in it, a line in that
    b = FlagComplex(4, 5)
    expected = math.prod(gaussian_binomial(d, d - 1, 5) for d in range(2, 5))
    assert len(b.chambers) == expected == flag_count(4, 5) == 29016


def test_chamber_guard():
    with pytest.raises(SphericalError):
        FlagComplex(8, 7)
    with pytest.raises(SphericalError):
        FlagComplex(3, 4)  # prime powers not supported in v1


def test_opposition_complex_rank_one():
    b = FlagComplex(2, 5)
    c = b.chambers[0]
    opp = b.opposition_complex((c,) if not isinstance(c, tuple) else c)
    # all q points distinct from the chamber
    assert len(opp.cells(0)) == 5


def test_fano_opposition_complex():
    b = FlagComplex(3, 2)
    for chamber in b.chambers:
        opp = b.opposition_complex(chamber)
        bv = betti_vector(opp)
        assert bv[0] == 0  # connected
        assert bv[1] >= 1  # spherical but not contractible

    # thickness threshold of the A_2 case: 2^1 + 1 = 3 met with equality
    assert 2 >= prime_threshold("A", 2)


def test_opposition_symmetric_and_equivariant():
    b = FlagComplex(3, 2)
    rng = random.Random(21)
    lines = b.subspaces[1]
    planes = b.subspaces[2]
    for _ in range(50):
        a = rng.choice(lines)
        bb = rng.choice(planes)
        assert b.opposite_subspaces(a, bb) == b.opposite_subspaces(bb, a)
    # invariance under a few random invertible matrices
    for _ in range(10):
        m = _random_gl(rng, 3, 2)
        for _ in range(20):
            a = rng.choice(lines)
            bb = rng.choice(planes)
            assert b.opposite_subspaces(a, bb) == b.opposite_subspaces(
                _act(m, a, 2), _act(m, bb, 2)
            )


def _random_gl(rng, n, q):
    while True:
        m = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        if span_rank(m, q) == n:
            return m


def _act(m, subspace, q):
    rows = tuple(
        tuple(sum(v * m[k][j] for k, v in enumerate(row)) % q for j in range(len(m)))
        for row in subspace
    )
    return rref(rows, q)


def test_apartment_has_factorial_many_chambers():
    b = FlagComplex(3, 2)
    frame = [((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)]
    ap = apartment_from_frame(b, frame)
    assert ap.chamber_count == 6


def cell_opposite_to_face(b, cell, chamber):
    """The executable opposition criterion against the matching face of a chamber."""
    for s in cell:
        c_part = chamber[(b.n - len(s)) - 1]
        if not b.opposite_subspaces(s, c_part):
            return False
    return True


def test_gallery_distance_and_diameter():
    b = FlagComplex(3, 2)
    # opposite chambers realize the diameter n(n-1)/2 = 3
    c = b.chambers[0]
    far = [d for d in b.chambers if cell_opposite_to_face(b, d, c)]
    assert far
    dist = gallery_distances(lambda x: panel_neighbors(b.complex(), x), c)
    for d in far:
        assert dist[d] == 3
    assert dist[c] == 0


def test_find_opposite_apartment_q2():
    b = FlagComplex(3, 2)
    c = b.chambers[0]
    ap, guaranteed = find_opposite_apartment(b, c)
    assert not guaranteed  # 3 is not larger than 6
    # existence is decided by exhaustive search; whatever the answer, it must
    # be consistent with a direct check
    if ap is not None:
        assert frame_is_opposite_chamber(b, list(ap.frame), c)


def test_find_opposite_apartment_q7():
    b = FlagComplex(3, 7)
    c = b.chambers[0]
    ap, guaranteed = find_opposite_apartment(b, c)
    assert guaranteed  # thickness 8 > 6 chambers per apartment
    assert ap is not None
    assert ap.chamber_count == 6


@pytest.mark.parametrize(
    "n, q, found",
    [(3, 2, False), (3, 3, True), (4, 2, False), (4, 3, False), (4, 5, True)],
)
def test_opposite_apartment_answers(n, q, found):
    # A_2 and A_3 below and at their thresholds; an exhaustive search, so
    # `found = False` is a proof that Opp(c) holds no apartment
    b = FlagComplex(n, q)
    c = b.chambers[0]
    ap, _ = find_opposite_apartment(b, c)
    assert (ap is not None) == found
    if found:
        assert ap.chamber_count == math.factorial(n)
        assert frame_is_opposite_chamber(b, list(ap.frame), c)


def test_dependent_frame_is_not_opposite():
    # two equal lines pass every proper subset test; the full frame must be a basis
    b = FlagComplex(2, 3)
    c = b.chambers[0]
    line = next(l for l in b.subspaces[1] if b.opposite_subspaces(l, c[0]))
    assert not frame_is_opposite_chamber(b, [line, line], c)


def test_rank1_opposite_apartment():
    b = FlagComplex(2, 2)
    c = b.chambers[0]
    ap, guaranteed = find_opposite_apartment(b, c)
    assert ap is not None
    assert ap.chamber_count == 2


@pytest.mark.parametrize("q", [2, 3])
def test_existence_aps_sph_build_witness(q):
    # for opposite vertices A, B and an apartment Sigma containing A, there is
    # an apartment containing B and the star of A in Sigma
    b = FlagComplex(3, q)
    e1, e2, e3 = ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)
    frame = [e1, e2, e3]
    sigma = apartment_from_frame(b, frame)
    a = e1
    # B: planes opposite to A (complementary)
    bs = [pl for pl in b.subspaces[2] if span_rank(a + pl, q) == 3]
    star_a = {ch for ch in sigma.chambers if ch[0] == rref(a, q)}
    for bb in bs:
        ok = False
        for other in combinations([l for l in b.subspaces[1] if l != a], 2):
            cand = [a, other[0], other[1]]
            if span_rank(sum(cand, ()), q) != 3:
                continue
            ap = apartment_from_frame(b, cand)
            if bb in {c2 for ch in ap.chambers for c2 in ch} and star_a <= set(
                ap.chambers
            ):
                ok = True
                break
        assert ok


def test_prime_threshold_is_the_opposition_thickness_bound():
    # q + 1 >= 2^(n-2) + 1 for A_{n-1} (rank n - 1), q + 1 >= 2^(2m-1) + 1 for C_m
    assert (2 >= prime_threshold("A", 2)) is True
    assert (3 >= prime_threshold("A", 3)) is False  # need q+1 >= 5
    assert (7 >= prime_threshold("C", 2)) is False  # need q+1 >= 9
    assert (11 >= prime_threshold("C", 2)) is True
    with pytest.raises(SigmaError):
        prime_threshold("E", 3)
