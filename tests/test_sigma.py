"""Verdict logic: forbidden cones, prime thresholds, the worked subgroup examples."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fm_oracle import feasible_point
from linalg_oracle import rank
from sigmabuild.chevalley import GroupElement, h_elem, x_elem
from sigmabuild.linalg import Q0, Q1
from sigmabuild.sigma import (
    CERTAIN_IN,
    CERTAIN_OUT,
    CONJECTURAL_IN,
    SigmaContext,
    SigmaError,
    _as_vector,
    character_eval,
    finiteness_type,
    in_delta_k,
    minimal_bad_support,
    prime_threshold,
    sigma_verdict,
)


def ctx_sl(n, primes):
    return SigmaContext.for_sl(n, primes)


def basis(ctx):
    """Index set Delta^0 of a context: pairs (simple root index, prime), ordered."""
    return tuple((i, p) for p in ctx.primes for i in range(1, ctx.rank + 1))


def test_context_basics():
    ctx = ctx_sl(3, (2, 3))
    assert ctx.dim == 4
    assert basis(ctx) == ((1, 2), (2, 2), (1, 3), (2, 3))
    assert ctx.sol  # threshold for A_2 is 2
    assert not ctx_sl(5, (3,)).sol  # threshold for A_4 is 8
    with pytest.raises(SigmaError):
        SigmaContext("A", 0, (2,))
    with pytest.raises(SigmaError):
        SigmaContext("A", 2, ())
    for primes in ((4,), (1,)):
        with pytest.raises(SigmaError, match="not a prime"):
            ctx_sl(3, primes)


def test_prime_threshold():
    assert prime_threshold("A", 2) == 2
    assert prime_threshold("A", 4) == 8
    assert prime_threshold("C", 2) == 8
    assert prime_threshold("D", 4) == 128
    with pytest.raises(SigmaError):
        prime_threshold("E", 8)
    for family in ("A", "C"):  # no rank-0 root system, so no threshold
        with pytest.raises(SigmaError):
            prime_threshold(family, 0)


def test_in_delta_k():
    ctx = ctx_sl(3, (2, 3))
    chi = (1, 1, 1, 3)
    assert in_delta_k(ctx, chi, 4)
    assert not in_delta_k(ctx, chi, 3)
    assert not in_delta_k(ctx, (1, -1, 0, 0), 4)
    assert in_delta_k(ctx, (0, 0, 1, 0), 1)
    with pytest.raises(SigmaError):
        in_delta_k(ctx, (0, 0, 0, 0), 1)


def test_sigma_verdict_mixed_signs():
    ctx = ctx_sl(3, (5,))
    for k in (1, 2, 5, 9):
        v = sigma_verdict(ctx, (1, -1), k)
        assert v.kind == CERTAIN_IN


def test_sigma_verdict_support_cone():
    ctx = ctx_sl(3, (2, 3))
    chi = (1, 1, 1, 3)
    assert sigma_verdict(ctx, chi, 4).kind == CERTAIN_OUT
    assert sigma_verdict(ctx, chi, 3).kind == CERTAIN_IN  # threshold met at 2


def test_sigma_verdict_conjectural_branch():
    # SL_5 with p = 3 < 2^3: all-positive support 2
    ctx = ctx_sl(5, (3,))
    chi = (1, 2, 0, 0)
    assert sigma_verdict(ctx, chi, 2).kind == CERTAIN_OUT
    v = sigma_verdict(ctx, chi, 1)
    assert v.kind == CONJECTURAL_IN
    assert not v.certain


def test_scale_invariance():
    ctx = ctx_sl(3, (2, 3))
    rng = random.Random(3)
    for _ in range(100):
        chi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        if all(c == 0 for c in chi):
            continue
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for k in (1, 2, 3, 4):
            scaled = sigma_verdict(ctx, tuple(lam * c for c in chi), k)
            assert sigma_verdict(ctx, chi, k).kind == scaled.kind


def test_monotone_in_k():
    ctx = ctx_sl(3, (2, 3))
    rng = random.Random(4)
    for _ in range(100):
        chi = tuple(Fraction(rng.randint(-2, 3)) for _ in range(4))
        if all(c == 0 for c in chi):
            continue
        out_at = [k for k in range(1, 5) if sigma_verdict(ctx, chi, k).kind == CERTAIN_OUT]
        # certain-out is upward closed in k
        assert out_at == list(range(min(out_at), 5)) if out_at else True


def test_minimal_bad_support_and_span_search():
    ctx = ctx_sl(3, (2, 3))
    # span{(1,-1,0,0)}: no non-negative non-zero vector
    s, w = minimal_bad_support(ctx, [(1, -1, 0, 0)])
    assert s is None
    # span{(1,1,1,3)}: the vector itself, support 4
    s, w = minimal_bad_support(ctx, [(1, 1, 1, 3)])
    assert s == 4
    # a 2-dim span containing a support-1 ray: (1,1,0,0) - (0,1,0,0)
    s, w = minimal_bad_support(ctx, [(1, 1, 0, 0), (0, 1, 0, 0)])
    assert s == 1


def test_finiteness_example_h1():
    # n = 3, kernel of chi_{1,p} - chi_{2,p}: type F-infinity
    ctx = ctx_sl(3, (5,))
    for k in (1, 3, 10):
        v = finiteness_type(ctx, [(1, -1)], k)
        assert v.kind == CERTAIN_IN
        assert "infinity" in v.justification


def test_finiteness_example_h2():
    # n = 3, S = {p, q}: kernel of chi_1p + chi_2p + chi_1q + 3 chi_2q
    ctx = ctx_sl(3, (2, 3))
    chi = (1, 1, 1, 3)
    assert finiteness_type(ctx, [chi], 4).kind == CERTAIN_OUT
    assert finiteness_type(ctx, [chi], 3).kind == CERTAIN_IN


def test_finiteness_example_h3():
    # n = 3, S = {2, 3}: the all-ones character; |S|*(n-1) = 4
    ctx = ctx_sl(3, (2, 3))
    ones = (1, 1, 1, 1)
    assert finiteness_type(ctx, [ones], 4).kind == CERTAIN_OUT
    assert finiteness_type(ctx, [ones], 3).kind == CERTAIN_IN


def test_finiteness_consistency_with_sigma_verdict():
    # W = span{chi}: F_k iff both rays +-chi are in the k-th invariant
    ctx = ctx_sl(3, (2, 3))
    rng = random.Random(11)
    for _ in range(60):
        chi = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        if all(c == 0 for c in chi):
            continue
        for k in (1, 2, 3, 4):
            ft = finiteness_type(ctx, [chi], k)
            v_plus = sigma_verdict(ctx, chi, k)
            v_minus = sigma_verdict(ctx, tuple(-c for c in chi), k)
            both_in = v_plus.kind != CERTAIN_OUT and v_minus.kind != CERTAIN_OUT
            assert (ft.kind != CERTAIN_OUT) == both_in


def test_degenerate_whole_space():
    ctx = ctx_sl(3, (2,))
    gens = [(1, 0), (0, 1)]
    v = finiteness_type(ctx, gens, 1)
    assert v.kind == CERTAIN_OUT  # basis vectors themselves vanish


# --- the elementary-vector search against the retired subset search ------------------


def fm_subset_search(ctx, generators, max_support):
    """A non-zero, non-negative vector in the span with support <= max_support.

    Exact rational feasibility over each support subset, normalizing one
    coordinate to 1; returns the vector or None.  This exponential search
    (d * 2^(d-1) Fourier-Motzkin runs when nothing is found) is the reference
    for the elementary-vector search.
    """
    gens = [_as_vector(ctx, g) for g in generators]
    if not gens:
        return None
    m = len(gens)
    d = ctx.dim
    for size in range(1, max_support + 1):
        for subset in combinations(range(d), size):
            inside = set(subset)
            for pivot in subset:
                cons = []
                for i in range(d):
                    row = tuple(g[i] for g in gens)
                    if i == pivot:
                        cons.append((row, "==", Q1))
                    elif i in inside:
                        cons.append((tuple(-x for x in row), "<=", Q0))
                    else:
                        cons.append((row, "==", Q0))
                sol = feasible_point(m, cons)
                if sol is not None:
                    vec = tuple(
                        sum((sol[j] * gens[j][i] for j in range(m)), Q0)
                        for i in range(d)
                    )
                    return vec
    return None


def oracle_minimal_bad_support(ctx, generators):
    found = fm_subset_search(ctx, generators, ctx.dim)
    if found is None:
        return None, None
    return sum(1 for c in found if c != 0), found


# halves and thirds, so that the generators of a span can have mixed denominators
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3)))


@st.composite
def spans(draw):
    """(dim, generators): 1-4 generators mixing zero, dependent, planted
    non-negative and mixed-sign vectors, with integer or Fraction entries."""
    dim = draw(st.integers(min_value=1, max_value=6))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("zero", "dependent", "planted", "mixed", "fractions")))
        if kind == "zero":
            g = (0,) * dim
        elif kind == "dependent" and gens:
            a, b = draw(st.integers(-2, 2)), draw(st.sampled_from((-1, 1, Fraction(1, 2))))
            u, v = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            g = tuple(a * x + b * y for x, y in zip(u, v))
        elif kind == "planted":
            g = draw(st.tuples(*[st.sampled_from((0, 0, 1, 2, Fraction(1, 3)))] * dim))
        elif kind == "fractions":
            g = draw(st.tuples(*[st.one_of(st.just(0), FRACTIONS)] * dim))
        else:
            g = draw(st.tuples(*[st.integers(-3, 3)] * dim))
        gens.append(g)
    return dim, gens


@settings(max_examples=200, deadline=None)
@given(spans())
def test_minimal_bad_support_matches_subset_search(case):
    dim, gens = case
    ctx = ctx_sl(dim + 1, (2,))
    support, witness = minimal_bad_support(ctx, gens)
    assert (support, witness) == oracle_minimal_bad_support(ctx, gens)
    if witness is None:
        return
    assert all(c >= 0 for c in witness)
    assert rank(list(gens) + [witness]) == rank(gens)
    assert sum(1 for c in witness if c != 0) == support
    assert next(c for c in witness if c != 0) == 1
    assert all(type(c) is Fraction for c in witness)


def test_span_search_builds_no_fraction_before_its_witness(monkeypatch):
    # generators are scaled once to integers and every candidate is an integer
    # combination of them: the only Fractions built are the witness entries
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    ctx = ctx_sl(6, (2,))
    gens = [(1, -1, 0, 2, Fraction(1, 2)), (Fraction(2, 3), 1, 1, 0, 0), (0, 0, 1, -1, 1)]
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    support, witness = minimal_bad_support(ctx, gens)
    monkeypatch.undo()
    assert (support, witness) == oracle_minimal_bad_support(ctx, gens)
    assert support is not None and len(built) == ctx.dim


def test_float_coefficients_are_refused():
    # 0.1 is not 1/10 in binary: a verdict read from it would be about another number
    ctx = ctx_sl(3, (2,))
    for call in (
        lambda: finiteness_type(ctx, [(0.1, 0.2)], 1),
        lambda: minimal_bad_support(ctx, [(1, 0), (0, 0.5)]),
        lambda: sigma_verdict(ctx, (1.0, 0), 1),
        lambda: in_delta_k(ctx, (0, 2.0), 1),
    ):
        with pytest.raises(SigmaError, match="float"):
            call()
    assert finiteness_type(ctx, [(Fraction(1, 10), Fraction(1, 5))], 1).witness == (1, 2)


def test_character_eval_refuses_what_is_not_a_borel_character():
    # a character of B(Z[1/10]) in SL_3 is a tuple of ctx.dim exact
    # coefficients, blocks (chi_{1,2}, chi_{2,2}), (chi_{1,5}, chi_{2,5})
    ctx = ctx_sl(3, (2, 5))
    g = h_elem(3, (1, 0), Fraction(2)) * x_elem(3, (0, 1), Fraction(3, 5))  # diagonal (2, 1/2, 1)
    assert character_eval(ctx, (1, 0, 0, 0), g) == -2
    assert character_eval(ctx, (0, 1, 0, 0), g) == 1
    assert character_eval(ctx, (0, 0, 1, 1), g) == 0
    for context, chi, matrix, match in (
        (ctx, (0.5, 0, 0, 0), g, "float"),
        (ctx, (1, 0), g, "length"),
        (SigmaContext("C", 2, (2, 5)), (1, 0, 0, 0), g, "family"),
        (ctx, (1, 0, 0, 0), h_elem(2, (1,), Fraction(2)), "size"),
        (ctx, (1, 0, 0, 0), h_elem(3, (1, 0), Fraction(3)), "Borel"),
        (ctx, (1, 0, 0, 0), GroupElement([[1, 0, 0], [1, 1, 0], [0, 0, 1]]), "Borel"),
    ):
        with pytest.raises(SigmaError, match=match):
            character_eval(context, chi, matrix)


def _orthogonal(rng, u):
    """A non-zero integer vector orthogonal to u, so of mixed signs when u > 0."""
    while True:
        w = [0] * len(u)
        for _ in range(3):
            i, j = rng.sample(range(len(u)), 2)
            w[i] += u[j]
            w[j] -= u[i]
        if any(w):
            return w


def test_dim16_verdicts_within_a_second():
    # SL_3 with 8 primes: dim 16, where the subset search makes 16 * 2^15
    # Fourier-Motzkin runs for an F-infinity verdict.  Each call takes about
    # 2 ms; the 0.1 s budget leaves room for a slow shared host.
    budget_s = 0.1
    ctx = ctx_sl(3, (2, 3, 5, 7, 11, 13, 17, 19))
    assert ctx.dim == 16
    rng = random.Random(16)
    u = [rng.randint(1, 5) for _ in range(16)]
    for n_gens in (2, 3):
        gens = [_orthogonal(rng, u) for _ in range(n_gens)]
        start = time.perf_counter()
        v = finiteness_type(ctx, gens, 16)
        assert time.perf_counter() - start < budget_s
        assert v.kind == CERTAIN_IN and v.witness is None
    # a planted ray plus directions orthogonal to a positive vector on the
    # other coordinates: the ray is the only non-negative direction.  The
    # subset search scans every smaller support first, so support 12 is the
    # case it cannot finish; support 2 it finds at once.
    for support in (2, 12):
        inside = sorted(rng.sample(range(16), support))
        planted = [rng.randint(1, 5) if i in inside else 0 for i in range(16)]
        rest = [i for i in range(16) if i not in inside]
        others = []
        for _ in range(2):
            w = [0] * 16
            for i, x in zip(rest, _orthogonal(rng, [u[i] for i in rest])):
                w[i] = x
            others.append(w)
        gens = [[a + b for a, b in zip(planted, others[0])]] + others
        start = time.perf_counter()
        v = finiteness_type(ctx, gens, 2)
        assert time.perf_counter() - start < budget_s
        assert v.kind == (CERTAIN_OUT if support <= 2 else CERTAIN_IN)
        assert v.witness == tuple(Fraction(c, planted[inside[0]]) for c in planted)
