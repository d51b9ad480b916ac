import functools
import gc
import hashlib
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    DegeneratePointError,
    LaurentPoly,
    ModeError,
    PathWeightReport,
    PhasePoint,
    SquareMatrix,
    build_lax,
    iterate,
    path_weight_oracle,
    to_phase,
    conserved_values,
    conserved_values_by_path,
    elementary_symmetric,
    elementary_symmetric_z_poly,
    f_poly,
    ideal_generator,
    interval_weight,
)
from toda_bn.conserved import _chain_sums, _f_polys, _interval_table
from toda_bn.dynamics import _Dual
from toda_bn.lax import _inverse_by_gamma2
from toda_bn.verify import (printed_f1, printed_f2_n2, random_canonical, random_point,
                            random_rational)


def test_weight_table_singletons():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert interval_weight(n, k, k) == LaurentPoly.z_var(n, k)
            kbar = 2 * n + 1 - k
            assert interval_weight(n, kbar, kbar) == LaurentPoly.z_var(n, k, -1)


def test_weight_table_dashed():
    n = 2
    q1q2 = LaurentPoly.q_var(n, 1) * LaurentPoly.q_var(n, 2)
    assert interval_weight(n, 1, 3) == LaurentPoly.z_var(n, 1) * q1q2
    assert interval_weight(n, 1, 4) == -1 * LaurentPoly.z_var(n, 1) * q1q2


def test_weight_table_zero_cases():
    assert interval_weight(3, 1, 3).is_zero()  # non-adjacent, no path
    assert interval_weight(2, 3, 1).is_zero()  # x > y
    with pytest.raises(ValueError):
        interval_weight(2, 0, 1)


def docstring_weights(n):
    """The six weighted shapes of the conserved module docstring, by (x, y)."""
    z, q = LaurentPoly.z_var, LaurentPoly.q_var

    def bar(k):
        return 2 * n + 1 - k

    def tail(k):  # Q_k Q_{k+1} ... Q_n
        acc = LaurentPoly.one(n)
        for m in range(k, n + 1):
            acc = acc * q(n, m)
        return acc

    w = {}
    for k in range(1, n + 1):
        w[(k, k)] = z(n, k)
        w[(bar(k), bar(k))] = z(n, k, -1)
        w[(k, bar(k))] = -(z(n, k) * tail(k))
        if k < n:
            w[(k, k + 1)] = -(q(n, k) * z(n, k))
            w[(k, bar(k + 1))] = z(n, k) * tail(k)
        if k > 1:
            w[(bar(k), bar(k - 1))] = -(q(n, k - 1) * z(n, k, -1))
    assert len(w) == 6 * n - 3  # no two shapes name the same pair
    return w


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_table_every_pair(n):
    expected = docstring_weights(n)
    for x in range(1, 2 * n + 1):
        for y in range(1, 2 * n + 1):
            assert interval_weight(n, x, y) == expected.get((x, y), LaurentPoly.zero(n)), (x, y)


@pytest.mark.parametrize("n", range(1, 7))
def test_interval_table_rows_reproduce_interval_weight(rng, n):
    # a row (y, sign, factors, forces_next) weighs sign times its factors,
    # indices into (z, 1/z, Q): z_k or 1/z_k first, then the Q_k ascending.
    # The original table names every weighted pair; the improved one drops
    # (k, kbar) for k < n and forces kbar after (k, k+1bar)
    original, improved = _interval_table(n, False), _interval_table(n, True)
    pairs = {table: {(x, row[0]) for x, rows in enumerate(table, 1) for row in rows}
             for table in (original, improved)}
    assert pairs[original] == set(docstring_weights(n))
    assert pairs[improved] == pairs[original] - {(k, 2 * n + 1 - k) for k in range(1, n)}
    for _ in range(3):
        x = random_point(n, rng)
        values = (*x.z, *(1 / v for v in x.z), *x.Q)
        for table in (original, improved):
            assert len(table) == 2 * n
            for pos, rows in enumerate(table, 1):
                assert [y for y, *_ in rows] == sorted({y for y, *_ in rows})
                for y, sign, factors, forces_next in rows:
                    head, qs = factors[0], factors[1:]
                    assert head < 2 * n and list(qs) == sorted(set(qs))
                    assert all(2 * n <= f < 3 * n for f in qs)
                    w = sign * functools.reduce(operator.mul, (values[f] for f in factors))
                    assert w == interval_weight(n, pos, y).evaluate(x.z, x.Q), (pos, y)
                    assert forces_next == (table is improved and pos < n and y == 2 * n - pos)


def test_f1_matches_printed_formula():
    for n in range(1, 5):
        assert f_poly(n, 1) == printed_f1(n)


def test_f2_matches_printed_formula_n2():
    assert f_poly(2, 2) == printed_f2_n2()


def test_f0_and_f2n_are_one():
    for n in range(1, 5):
        assert f_poly(n, 0) == LaurentPoly.one(n)
        assert f_poly(n, 2 * n) == LaurentPoly.one(n)


def test_improved_mode_equals_original():
    for n in range(1, 5):
        for i in range(2 * n + 1):
            assert f_poly(n, i, "improved") == f_poly(n, i, "original")


def test_conserved_values_worked_point(worked_point):
    f = conserved_values(worked_point)
    assert f == (1, Fraction(61, 15), Fraction(223, 30), Fraction(61, 15), 1)
    assert conserved_values_by_path(worked_point) == f


def test_q_zero_reduces_to_elementary_symmetric():
    for n in range(1, 5):
        for i in range(2 * n + 1):
            assert f_poly(n, i).substitute_q_zero() == elementary_symmetric_z_poly(n, i)


def test_q_zero_values(rng):
    n = 3
    z = tuple(random_rational(rng) for _ in range(n))
    x = PhasePoint(n, z, (Fraction(0),) * n)
    vals = list(z) + [1 / v for v in z]
    f = conserved_values(x)
    for i in range(2 * n + 1):
        assert f[i] == elementary_symmetric(i, vals)


def test_elementary_symmetric_basics():
    assert elementary_symmetric(1, [Fraction(2), Fraction(3)]) == 5
    vals = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3)]
    assert elementary_symmetric(2, vals) == Fraction(31, 3)
    # reciprocal pairs multiply to 1
    pairs = [Fraction(5), Fraction(1, 5), Fraction(7, 3), Fraction(3, 7)]
    assert elementary_symmetric(4, pairs) == 1
    assert elementary_symmetric(0, pairs) == 1
    assert elementary_symmetric(9, pairs) == 0


def test_ideal_generator_vanishes_at_exponential_point(rng):
    for n in (1, 2, 3):
        eps = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        x = PhasePoint(n, tuple(math.exp(e) for e in eps), (0.0,) * n)
        for i in range(1, 2 * n + 1):
            assert abs(ideal_generator(i, x, eps)) < 1e-12


def test_ideal_generator_trivial_weights():
    n = 2
    x = PhasePoint(n, (Fraction(1),) * n, (Fraction(0),) * n)
    assert ideal_generator(2 * n, x, [0.0] * n) == 0.0


@pytest.mark.parametrize("i", [-1, 5])
def test_ideal_generator_rejects_an_index_outside_0_to_2n(monkeypatch, i):
    # checked before any F_i is computed, with f_poly's message
    monkeypatch.setattr("toda_bn.conserved.conserved_values", None)
    x = PhasePoint(2, (Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(1, 5)))
    with pytest.raises(ValueError, match=rf"^need 0 <= i <= 2n, got i={i}$"):
        ideal_generator(i, x, [0.1, 0.2])
    with pytest.raises(ValueError, match=rf"^need 0 <= i <= 2n, got i={i}$"):
        f_poly(2, i)


def test_ideal_generator_routes_agree(rng):
    x = random_point(2, rng)
    eps = [0.3, -0.1]
    vals = [math.exp(e) for e in eps] + [math.exp(-e) for e in eps]
    for i in range(1, 5):
        ei = float(elementary_symmetric(i, vals))
        assert ideal_generator(i, x, eps) == float(conserved_values_by_path(x)[i]) - ei


def test_path_weight_oracle_random_points(rng):
    for n in (1, 2, 3):
        done = 0
        while done < 6:
            x = random_point(n, rng)
            if any(q == 0 for q in x.Q):
                continue
            assert path_weight_oracle(x).all_ok
            done += 1


def test_path_weight_oracle_n1_instance():
    x = PhasePoint(1, (Fraction(3, 2),), (Fraction(2, 5),))
    rep = path_weight_oracle(x)
    assert rep.all_ok and rep == (True,) * 4
    for k in range(4):  # all_ok needs every one of the four identities
        assert not PathWeightReport(*((True,) * k + (False,) + (True,) * (3 - k))).all_ok


def test_path_weight_oracle_degenerate_q(rng):
    n = 2
    x = PhasePoint(n, (Fraction(2), Fraction(3)), (Fraction(0), Fraction(1, 3)))
    with pytest.raises(DegeneratePointError):
        path_weight_oracle(x)
    # both conserved-quantity routes stay total and equal at that point
    assert conserved_values(x) == conserved_values_by_path(x)


def test_path_weight_oracle_float_rejected(worked_point):
    with pytest.raises(ModeError):
        path_weight_oracle(worked_point.to_float())


def test_path_route_rank_guard(monkeypatch, rng):
    # f_poly raises the route's error before expanding anything, so a float
    # point above the cap gets it too; an exact point is the chain-sum pass,
    # which expands nothing and equals the char_poly route at every rank
    def expand(n, mode):
        raise AssertionError(f"f_poly expanded at n = {n}")

    monkeypatch.setattr("toda_bn.conserved._f_polys", expand)
    x = PhasePoint(7, (Fraction(1),) * 7, (Fraction(0),) * 7)
    for route in (lambda: conserved_values_by_path(x.to_float()), lambda: f_poly(7, 1)):
        with pytest.raises(ValueError, match=r"^path-formula route is capped at n <= 6$"):
            route()
    for n in range(7, 11):
        q_zero = PhasePoint(n, tuple(random_rational(rng) for _ in range(n)),
                            (Fraction(0),) * n)
        for y in (random_point(n, rng), random_point(n, rng), q_zero):
            assert conserved_values_by_path(y) == conserved_values(y)


def fraction_terms(p, z, Q):
    """p at (z, Q) term by term in Fractions, the terms added in storage order;
    each distinct z-half and Q-half monomial is computed once."""
    halves = {}

    def monomial(base, exps):
        if (base, exps) not in halves:
            v = Fraction(1)
            for b, e in zip(base, exps):
                if e:
                    v *= b ** e
            halves[base, exps] = v
        return halves[base, exps]

    acc = Fraction(0)
    for (ez, eq), c in p.terms.items():
        acc += c * monomial(z, ez) * monomial(Q, eq)
    return acc


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_path_route_equals_the_f_poly_terms(rng, n):
    # the exact path route is the chain-sum pass; it must equal the expanded
    # path formula of either table, evaluated term by term in Fractions, which
    # takes about 0.5 s a point at n = 6
    points = [random_point(n, rng) for _ in range(3 if n <= 4 else 1)]
    points.append(PhasePoint(n, tuple(random_rational(rng) for _ in range(n)),
                             (Fraction(0),) * n))
    if n <= 5:
        # 8 steps down an orbit the entries carry hundreds of bits (about 450
        # at n = 3, 650 at n = 5); at n = 6 the Fraction terms take about
        # 4 s there, so rank 6 is checked at the small points only
        while True:
            try:
                points.append(iterate(random_point(n, rng), 8)[-1])
                break
            except DegeneratePointError:
                continue
    # the two tables expand to one term map, so one exact sum serves both
    polys = [f_poly(n, i, "original") for i in range(2 * n + 1)]
    assert polys == [f_poly(n, i, "improved") for i in range(2 * n + 1)]
    for x in points:
        got = conserved_values_by_path(x)
        assert all(type(v) is Fraction for v in got)
        assert got == tuple(fraction_terms(p, x.z, x.Q) for p in polys)


@pytest.mark.parametrize("n", range(1, 7))
def test_float_path_route_returns_floats_only(rng, n):
    # F_0 and F_2n, the constant polynomial 1, are floats like F_1..F_2n-1
    for x in (random_point(n, rng).to_float(), to_phase(random_canonical(n, rng))):
        got = conserved_values_by_path(x)
        assert [type(v) for v in got] == [float] * (2 * n + 1)
        assert got[0].hex() == got[-1].hex() == (1.0).hex()


def test_elementary_symmetric_z_poly_edges():
    assert elementary_symmetric_z_poly(2, 0) == LaurentPoly.one(2)
    assert elementary_symmetric_z_poly(2, 5) == LaurentPoly.zero(2)
    assert isinstance(elementary_symmetric_z_poly(2, 5), LaurentPoly)
    with pytest.raises(ValueError, match=r"^need i >= 0$"):
        elementary_symmetric_z_poly(2, -1)


@pytest.mark.parametrize("n", range(1, 6))
def test_elementary_symmetric_z_poly_is_e_i_of_the_laurent_variables(n):
    # one pass per rank gives each e_i with the terms, and their order, of
    # the recursion run up to i alone, and the sum over i-subsets
    values = [LaurentPoly.z_var(n, k) for k in range(1, n + 1)]
    values += [LaurentPoly.z_var(n, k, -1) for k in range(1, n + 1)]
    for i in range(2 * n + 2):
        expected = LaurentPoly.zero(n) + elementary_symmetric(i, values)
        got = elementary_symmetric_z_poly(n, i)
        assert got == expected
        assert list(got.terms.items()) == list(expected.terms.items())
        subsets = LaurentPoly.zero(n)
        for subset in itertools.combinations(values, i):
            subsets = subsets + functools.reduce(operator.mul, subset, LaurentPoly.one(n))
        assert got == subsets


# -- the term order of f_poly: float evaluate sums in storage order -------------

# sha256 over repr(list(f_poly(n, i, mode).terms.items())) + "\n" for i = 0..2n,
# taken from the LaurentPoly ring recursion (f_poly_by_ring below)
F_POLY_GOLDEN = {
    1: "5050c9d412ab2a349b08fb8500a6ca064b91234b3cd05a7a88a666c9decab6f8",
    2: "67b06d1422ccec4a7fa67071cb5808be915400cb17174cf521c45123751b1cad",
    3: "cf690a9904e1e8d5c58abb00664a5e5921103ba5695461d588108ac6de39ca6b",
    4: "8c35769cb3fc8c76133c698443e423a44ed0b7bd31c00c8bc6cba5808b413eb6",
    5: "fef87a9dc437d751268132368d14ccbf026abe089dfa11dc7b59228bd973e45a",
    6: "d732d1bda7931f45913b7b3dd00a6d4f5d4d022f9d27bbde242a1cc854aec246",
}


@pytest.mark.parametrize("mode", ["original", "improved"])
@pytest.mark.parametrize("n", sorted(F_POLY_GOLDEN))
def test_f_poly_term_order_pinned(n, mode):
    digest = hashlib.sha256()
    for i in range(2 * n + 1):
        digest.update(repr(list(f_poly(n, i, mode).terms.items())).encode() + b"\n")
    assert digest.hexdigest() == F_POLY_GOLDEN[n]


def test_f_polys_share_one_key_object_a_monomial():
    # palindromic symmetry F_i = F_2n-i repeats every monomial; the expansion
    # keeps one key tuple a monomial, across F_0..F_2n and across the pair
    n = 6
    polys = _f_polys(n, "original")
    for i in range(n + 1):
        a, b = polys[i].terms, polys[2 * n - i].terms
        assert a == b
        keys = {k: k for k in b}
        assert all(keys[k] is k for k in a)
    shared = {}
    for p in polys:
        assert all(shared.setdefault(k, k) is k for k in p.terms)
    assert len(shared) == 6745 and sum(len(p.terms) for p in polys) == 17089


def test_f_polys_and_their_float_plan_retain_under_150_b_a_term():
    # F_0..F_12 at n = 6 and their evaluation plans after one float
    # evaluate; a key tuple, an index tuple and a float a term held 231 B
    n = 6
    x = PhasePoint(n, tuple(1.0 + 0.1 * k for k in range(n)),
                   tuple(0.3 + 0.05 * k for k in range(n)))
    f_poly.cache_clear()
    _f_polys.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        polys = [f_poly(n, i) for i in range(2 * n + 1)]
        conserved_values_by_path(x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / sum(len(p.terms) for p in polys) < 150


@pytest.mark.parametrize("n", range(1, 7))
def test_f_poly_exponents_lie_in_the_chain_ranges(n):
    # a chain takes z_k only from its interval at k and 1/z_k only from the
    # one at kbar, and each of its i intervals gives each Q_k at most once
    for mode in ("original", "improved"):
        for i in range(2 * n + 1):
            for ez, eq in f_poly(n, i, mode).terms:
                assert all(-1 <= e <= 1 for e in ez) and all(0 <= e <= i for e in eq)


def f_poly_by_ring(n, i, mode):
    """F_i by the memoized chain recursion in the LaurentPoly ring.

    The intervals starting at x are the y with a nonzero interval_weight,
    in increasing y.  Mode "improved" drops (k, kbar) for k < n, and after
    (k, k+1bar) for k < n the next interval must start at kbar.
    """
    improved = mode == "improved"
    zero = LaurentPoly.zero(n)
    one = LaurentPoly.one(n)
    memo = {}

    def chains(pos, left, forced):
        if left == 0:
            return zero if forced else one
        if pos > 2 * n:
            return zero
        key = (pos, left, forced)
        if key in memo:
            return memo[key]
        acc = zero if forced else chains(pos + 1, left, False)
        for y in range(pos, 2 * n + 1):
            w = interval_weight(n, pos, y)
            if w.is_zero() or (improved and pos < n and y == 2 * n + 1 - pos):
                continue
            nxt_forced = improved and pos < n and y == 2 * n - pos
            acc = acc + w * chains(y + 1, left - 1, nxt_forced)
        memo[key] = acc
        return acc

    return chains(1, i, False)


@pytest.mark.parametrize("mode", ["original", "improved"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_poly_matches_ring_recursion_in_order(n, mode):
    for i in range(2 * n + 1):
        dp, ring = f_poly(n, i, mode), f_poly_by_ring(n, i, mode)
        assert list(dp.terms.items()) == list(ring.terms.items())
        assert all(type(c) is Fraction for c in dp.terms.values())


# -- the chain-sum pass: F_0..F_2n at a point, over any scalar ------------------

NONZERO_FRACTIONS = st.fractions(-9, 9, max_denominator=9).filter(lambda v: v != 0)
RATIONAL_POINTS = st.integers(1, 8).flatmap(lambda n: st.builds(
    PhasePoint, st.just(n),
    st.lists(NONZERO_FRACTIONS, min_size=n, max_size=n).map(tuple),
    st.lists(st.fractions(-9, 9, max_denominator=9), min_size=n, max_size=n).map(tuple)))


@settings(max_examples=40, deadline=None)
@given(RATIONAL_POINTS)
def test_chain_sums_equal_char_poly_exactly(x):
    f = _chain_sums(x.n, x.z, [1 / v for v in x.z], x.Q, Fraction(1), Fraction(0))
    assert f == conserved_values(x)
    assert all(type(v) is Fraction for v in f)


def lax_inverse(x):
    """L^{-1} at an exact point, read off L by Gamma_2."""
    rows = _inverse_by_gamma2(x.n, build_lax(x).rows, x.Q[-1], Fraction(1), Fraction(0))
    return SquareMatrix(rows, "exact")


def char_poly_of_lax(x):
    """F_0..F_2n off det(lambda*E - L) of the dense L: the oracle of the
    route through L^{-1}."""
    return tuple((-1) ** i * c for i, c in enumerate(build_lax(x).char_poly()))


@settings(max_examples=40, deadline=None)
@given(RATIONAL_POINTS)
def test_closed_form_inverse_times_lax_is_identity(x):
    L, A = build_lax(x), lax_inverse(x)
    assert L @ A == SquareMatrix.identity(2 * x.n)
    assert A @ L == SquareMatrix.identity(2 * x.n)


@settings(max_examples=40, deadline=None)
@given(RATIONAL_POINTS)
def test_conserved_values_equal_char_poly_of_lax(x):
    assert conserved_values(x) == char_poly_of_lax(x)


@pytest.mark.parametrize("n", range(1, 9))
def test_conserved_values_equal_char_poly_of_lax_at_q_zero(rng, n):
    for _ in range(3):
        z = tuple(random_rational(rng) for _ in range(n))
        Q = [random_rational(rng) for _ in range(n)]
        Q[rng.randrange(n)] = Fraction(0)
        for x in (PhasePoint(n, z, tuple(Q)), PhasePoint(n, z, (Fraction(0),) * n)):
            assert conserved_values(x) == char_poly_of_lax(x)


@pytest.mark.parametrize("n", [3, 4])
def test_conserved_values_equal_char_poly_of_lax_on_orbits(rng, n):
    # entries of a 12-step orbit grow to hundreds of bits, where the dense
    # Hessenberg reduction of L swells most
    while True:
        try:
            orbit = iterate(random_point(n, rng), 12)
            break
        except DegeneratePointError:
            continue
    for x in orbit:
        assert conserved_values(x) == char_poly_of_lax(x)
        assert conserved_values(x) == conserved_values(orbit[0])


#: Relative bound, against max(1, |exact|), of the float chain-sum pass.
CHAIN_SUMS_RTOL = 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_float_chain_sums_near_exact_at_dyadic_chart_points(rng, n):
    # z_i = k_i / 8 > 0 and Q_i = -j_i / 16 < 0 are exact in binary64, so
    # only the pass itself rounds
    for _ in range(3):
        z = tuple(Fraction(rng.randint(1, 16), 8) for _ in range(n))
        Q = tuple(Fraction(-rng.randint(1, 16), 16) for _ in range(n))
        exact = _chain_sums(n, z, [1 / v for v in z], Q, Fraction(1), Fraction(0))
        zf = tuple(map(float, z))
        got = _chain_sums(n, zf, [1 / v for v in zf], tuple(map(float, Q)), 1.0, 0.0)
        assert all(type(v) is float for v in got)
        for g, e in zip(got, exact):
            assert abs(Fraction(g) - e) <= CHAIN_SUMS_RTOL * max(1, abs(e)), (g, e)


# -- the chain-sum pass over the symbolic and the dual ring --------------------


def _symbolic_chain_sums(n):
    """The chain-sum pass over the Laurent variables of rank n."""
    z = [LaurentPoly.z_var(n, k) for k in range(1, n + 1)]
    zinv = [LaurentPoly.z_var(n, k, -1) for k in range(1, n + 1)]
    Q = [LaurentPoly.q_var(n, k) for k in range(1, n + 1)]
    return _chain_sums(n, z, zinv, Q, LaurentPoly.one(n), LaurentPoly.zero(n))


@pytest.mark.parametrize("n", range(1, 5))
def test_chain_sums_over_laurent_polys_are_the_f_polys(n):
    # the pass runs the pruned table by default, so it gives the improved
    # polynomials; f_poly is this pass too, so the independent check of the
    # expansion is f_poly_by_ring (test_f_poly_matches_ring_recursion_in_order,
    # both modes), and this test pins the default table and the sharing pass
    for i, p in enumerate(_symbolic_chain_sums(n)):
        assert p == f_poly(n, i, "improved")
        assert list(p.terms) == list(f_poly(n, i, "improved").terms)  # storage order too


@pytest.mark.parametrize("n", range(1, 5))
def test_chain_sums_over_duals_give_the_f_poly_partials(rng, n):
    # seeding one coordinate with tangent 1 and the others with 0 makes each
    # F_i's tangent its partial derivative in that coordinate, exactly
    names = [f"z{k}" for k in range(1, n + 1)] + [f"Q{k}" for k in range(1, n + 1)]
    for _ in range(2):
        x = random_point(n, rng)
        for j, name in enumerate(names):
            u = [_Dual(v, Fraction(int(j == k))) for k, v in enumerate(x.z + x.Q)]
            z, Q = u[:n], u[n:]
            f = _chain_sums(n, z, [1 / v for v in z], Q, Fraction(1), Fraction(0))
            for i, v in enumerate(f):
                assert getattr(v, "value", v) == conserved_values(x)[i]
                assert getattr(v, "tangent", 0) == \
                    f_poly(n, i).partial_derivative(name).evaluate(x.z, x.Q)
