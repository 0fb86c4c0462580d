"""Root-system construction against brute-force reflection closure."""

import random
from fractions import Fraction

import pytest

from sigmabuild.coxeter import AlcoveGeometry
from sigmabuild.linalg import Q0, Q1, dot, inverse, matvec, vec
from sigmabuild.root_system import (
    AffineHyperplane,
    RootSystemError,
    affine_reflect,
    build_root_system,
    cartan_pairing,
    translation_action,
)


def reflect_hyperplane(datum, mirror, target):
    """Image of the wall `target` under reflection through `mirror`.

    Used to check that the wall system is stable under the affine Weyl group.
    """
    alpha = target.root
    beta = mirror.root
    # s_{beta,m}(H_{alpha,k}): direction s_beta(alpha), level transported by
    # the image of any point of the wall.
    img_root = tuple(
        a - cartan_pairing(datum, alpha, beta) * b for a, b in zip(alpha, beta)
    )
    # pick a point on the target wall: x = k * alpha / norm2(alpha) satisfies
    # kappa(x, alpha) = k.
    n2 = datum.norm2(alpha)
    x = tuple(target.level * c / n2 for c in alpha)
    y = affine_reflect(datum, mirror, x)
    level = datum.kappa(y, img_root)
    return AffineHyperplane.make(datum, img_root, level)


def root_count_formula(family, rank):
    if family == "A":
        return rank * (rank + 1)
    if family == "C":
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    raise RootSystemError(f"unsupported family {family!r}")


def reflection_closure(datum):
    """Independent oracle: close the simple roots under all simple reflections."""
    simples = list(datum.simple_root_coeffs)
    roots = set(simples)
    grew = True
    while grew:
        grew = False
        for alpha in list(roots):
            for s in simples:
                # s_beta(alpha) = alpha - <alpha, beta> beta
                c = cartan_pairing(datum, alpha, s)
                img = tuple(a - c * b for a, b in zip(alpha, s))
                if img not in roots:
                    roots.add(img)
                    grew = True
    return roots


def ambient_positive_roots(family, rank):
    """Positive roots as ambient vectors, in the standard realizations:
    e_i - e_j (A), e_i +- e_j and 2 e_i (C), e_i +- e_j (D), i < j."""
    dim = rank + 1 if family == "A" else rank
    roots = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for s in (-Q1,) if family == "A" else (Q1, -Q1):
                v = [Q0] * dim
                v[i], v[j] = Q1, s
                roots.append(tuple(v))
    if family == "C":
        for i in range(rank):
            v = [Q0] * rank
            v[i] = Fraction(2)
            roots.append(tuple(v))
    return roots


def positive_roots_by_gram_inverse(datum, family, rank):
    """The ambient table in simple-root coordinates: c = G^-1 (kappa(alpha_i, v))_i,
    valid because every root lies in the span of the simple roots."""
    g_inv = inverse(datum.gram)
    out = []
    for v in ambient_positive_roots(family, rank):
        c = matvec(g_inv, tuple(dot(a, v) for a in datum.ambient_simple_roots))
        assert all(x.denominator == 1 for x in c), (v, c)
        out.append(c)
    return sorted(out, key=lambda c: (sum(c), c))


ALL_RANKS = [("A", r) for r in range(1, 9)] + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_roots_match_the_ambient_tables(family, rank):
    datum = build_root_system(family, rank)
    ref = positive_roots_by_gram_inverse(datum, family, rank)
    assert datum.positive_roots == tuple(ref)
    assert datum.all_roots == tuple(ref) + tuple(tuple(-c for c in r) for r in ref)
    assert datum.simple_root_coeffs == tuple(
        tuple(Q1 if i == j else Q0 for j in range(rank)) for i in range(rank)
    )
    assert datum.highest_root == max(ref, key=lambda c: (sum(c), c))
    roots = datum.all_roots + datum.simple_root_coeffs + (datum.highest_root,)
    assert all(type(c) is int for r in roots for c in r)
    assert datum.cartan_matrix() == tuple(
        tuple(cartan_pairing(datum, a, b) for b in datum.simple_root_coeffs)
        for a in datum.simple_root_coeffs
    )
    assert all(type(c) is int for row in datum.cartan_matrix() for c in row)


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_pairing_table_matches_the_fraction_pairing(family, rank):
    # <beta, alpha^V> = 2 kappa(beta, alpha) / kappa(alpha, alpha), in
    # Fractions over the ambient vectors, against the integer table that
    # the alcove walks reflect by
    datum = build_root_system(family, rank)
    assert all(type(x) is int for row in datum.gram for x in row)
    pos = datum.positive_roots
    amb = {r: datum.ambient(r) for r in pos}
    table = datum.pairings(pos, pos)
    assert table == tuple(
        tuple(2 * dot(amb[b], amb[a]) / dot(amb[a], amb[a]) for b in pos) for a in pos
    )
    assert all(type(x) is int for row in table for x in row)
    assert AlcoveGeometry(datum)._pairings == table


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)],
)
def test_root_counts_and_closure(family, rank):
    datum = build_root_system(family, rank)
    assert len(datum.all_roots) == root_count_formula(family, rank)
    assert reflection_closure(datum) == set(datum.all_roots)
    # positive roots are nonnegative integer combinations of the simples
    for r in datum.positive_roots:
        assert all(c >= 0 and c.denominator == 1 for c in r)
    negs = {tuple(-c for c in r) for r in datum.positive_roots}
    assert negs | set(datum.positive_roots) == set(datum.all_roots)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("C", 2), ("D", 4)])
def test_point_has_the_given_simple_root_values(family, rank):
    datum = build_root_system(family, rank)
    rng = random.Random(rank)
    for _ in range(20):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)]
        x = datum.point(values)
        assert [datum.kappa(x, s) for s in datum.simple_root_coeffs] == values
    assert datum.point([0] * rank) == datum.zero()


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("D", 3)])
def test_highest_root(family, rank):
    datum = build_root_system(family, rank)
    hb = datum.highest_root
    for s in datum.simple_root_coeffs:
        assert datum.kappa(hb, s) >= 0
        cand = tuple(a + b for a, b in zip(hb, s))
        assert cand not in datum.root_set


def test_a2_examples():
    datum = build_root_system("A", 2)
    assert len(datum.all_roots) == 6
    a1, a2 = datum.simple_root_coeffs
    assert set(datum.positive_roots) == {a1, a2, (Fraction(1), Fraction(1))}
    assert datum.highest_root == (Fraction(1), Fraction(1))
    assert cartan_pairing(datum, a1, a2) == -1
    assert cartan_pairing(datum, (Fraction(1), Fraction(1)), a1) == 1
    assert type(cartan_pairing(datum, (Fraction(1), Fraction(1)), a1)) is int


def test_a1_trivial():
    datum = build_root_system("A", 1)
    assert len(datum.all_roots) == 2
    assert datum.highest_root == datum.simple_root_coeffs[0]


def test_c2_pairings():
    datum = build_root_system("C", 2)
    assert len(datum.all_roots) == 8
    a1, a2 = datum.simple_root_coeffs
    assert datum.norm2(a2) == 4  # a2 is the long simple root
    assert cartan_pairing(datum, a1, a2) == -1
    assert cartan_pairing(datum, a2, a1) == -2


def test_self_pairing_is_two():
    for family, rank in [("A", 3), ("C", 2), ("D", 4)]:
        datum = build_root_system(family, rank)
        for r in datum.all_roots:
            assert cartan_pairing(datum, r, r) == 2


def test_bad_inputs_rejected():
    with pytest.raises(RootSystemError):
        build_root_system("E", 8)
    with pytest.raises(RootSystemError):
        build_root_system("C", 1)
    with pytest.raises(RootSystemError):
        build_root_system("D", 2)
    datum = build_root_system("A", 2)
    with pytest.raises(RootSystemError):
        cartan_pairing(datum, datum.simple_root_coeffs[0], (Fraction(5), Fraction(0)))
    with pytest.raises(RootSystemError):
        cartan_pairing(datum, (Fraction(5), Fraction(0)), datum.simple_root_coeffs[0])


def rand_vec(rng, n):
    return vec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)])


def test_affine_reflect_involution_and_fixed_wall():
    rng = random.Random(7)
    datum = build_root_system("A", 2)
    for _ in range(100):
        i = rng.randrange(len(datum.positive_roots))
        h = AffineHyperplane(datum.positive_roots[i], Fraction(rng.randint(-3, 3)))
        v = rand_vec(rng, 2)
        w = affine_reflect(datum, h, v)
        assert affine_reflect(datum, h, w) == v
        # fixes the wall pointwise
        alpha = h.root
        x = tuple(h.level * c / datum.norm2(alpha) for c in alpha)
        assert affine_reflect(datum, h, x) == x


def test_affine_reflect_examples():
    datum = build_root_system("A", 1)
    alpha = datum.simple_root_coeffs[0]
    s0 = AffineHyperplane(alpha, Fraction(0))
    assert affine_reflect(datum, s0, alpha) == tuple(-c for c in alpha)
    s1 = AffineHyperplane(alpha, Fraction(1))
    coroot = datum.coroot(alpha)
    assert affine_reflect(datum, s1, datum.zero()) == coroot
    # s_{alpha,2}(3 alpha) = -3 alpha + 2 alpha^V = -alpha  (alpha^V = alpha here)
    s2 = AffineHyperplane(alpha, Fraction(2))
    v = tuple(3 * c for c in alpha)
    assert affine_reflect(datum, s2, v) == tuple(-c for c in alpha)


def test_translation_matches_double_reflection():
    rng = random.Random(11)
    datum = build_root_system("A", 2)
    for _ in range(100):
        i = rng.randrange(len(datum.positive_roots))
        alpha = datum.positive_roots[i]
        k = rng.randint(-4, 4)
        v = rand_vec(rng, 2)
        direct = translation_action(datum, alpha, k, v)
        neg = tuple(-c for c in alpha)
        h0 = AffineHyperplane.make(datum, alpha, 0)
        hk = AffineHyperplane.make(datum, neg, k)
        via = affine_reflect(datum, hk, affine_reflect(datum, h0, v))
        assert direct == via


def test_translation_examples():
    datum = build_root_system("A", 2)
    a1, a2 = datum.simple_root_coeffs
    v = rand_vec(random.Random(3), 2)
    assert translation_action(datum, a1, 0, v) == v
    assert translation_action(datum, a1, 1, datum.zero()) == tuple(
        -c for c in datum.coroot(a1)
    )
    expect = tuple(b - 2 * c for b, c in zip(a2, datum.coroot(a1)))
    assert translation_action(datum, a1, 2, a2) == expect


def test_hyperplane_normalization():
    datum = build_root_system("A", 2)
    a1 = datum.simple_root_coeffs[0]
    neg = tuple(-c for c in a1)
    h = AffineHyperplane.make(datum, neg, -3)
    assert h.root == a1 and h.level == 3


def test_wall_system_stable_under_reflections():
    datum = build_root_system("A", 2)
    rng = random.Random(5)
    for _ in range(50):
        i, j = rng.randrange(3), rng.randrange(3)
        mirror = AffineHyperplane(datum.positive_roots[i], Fraction(rng.randint(-2, 2)))
        target = AffineHyperplane(datum.positive_roots[j], Fraction(rng.randint(-2, 2)))
        img = reflect_hyperplane(datum, mirror, target)
        assert img.root in datum.positive_root_set
        assert img.level.denominator == 1
        # confirm pointwise: images of two points of the target lie on img
        for t in (Fraction(0), Fraction(1, 3)):
            n2 = datum.norm2(target.root)
            base = tuple(target.level * c / n2 for c in target.root)
            # move along the wall direction (orthogonal complement of the root)
            perp = _wall_direction(datum, target.root)
            x = tuple(b + t * p for b, p in zip(base, perp))
            y = affine_reflect(datum, mirror, x)
            assert datum.kappa(y, img.root) == img.level


def _wall_direction(datum, root):
    from linalg_oracle import affine_solve
    from sigmabuild.linalg import matvec

    g = matvec(datum.gram, root)
    part, null = affine_solve([g], [Fraction(0)])
    return null[0]
