import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    CanonicalPoint,
    IndexMismatchError,
    LaurentPoly,
    ModeError,
    UnknownVariableError,
    ZeroBaseError,
    f_poly,
    to_phase,
)
from toda_bn.lax import lax_symbolic
from toda_bn.verify import random_point, random_rational


def random_poly(n, rng, nterms=4):
    terms = {}
    for _ in range(nterms):
        ez = tuple(rng.randint(-3, 3) for _ in range(n))
        eq = tuple(rng.randint(0, 3) for _ in range(n))
        terms[(ez, eq)] = random_rational(rng)
    return LaurentPoly(n, terms)


def test_z_times_z_inverse():
    z1 = LaurentPoly.z_var(2, 1)
    z1i = LaurentPoly.z_var(2, 1, -1)
    assert z1 * z1i == LaurentPoly.one(2)


def test_square_of_one_minus_q():
    n = 1
    p = LaurentPoly.one(n) - LaurentPoly.q_var(n, 1)
    q1 = LaurentPoly.q_var(n, 1)
    assert p * p == LaurentPoly.one(n) - 2 * q1 + q1 * q1


def test_singleton_weights_telescope():
    from toda_bn import interval_weight

    for n in (2, 3):
        prod = LaurentPoly.one(n)
        for k in range(1, n + 1):
            prod = prod * interval_weight(n, k, k)              # z_k
            prod = prod * interval_weight(n, 2 * n + 1 - k, 2 * n + 1 - k)  # 1/z_k
        assert prod == LaurentPoly.one(n)


def test_evaluate_printed_f1_f2(worked_point):
    assert f_poly(2, 1).evaluate(worked_point.z, worked_point.Q) == Fraction(61, 15)
    assert f_poly(2, 2).evaluate(worked_point.z, worked_point.Q) == Fraction(223, 30)


def test_evaluate_constant(worked_point):
    assert LaurentPoly.one(2).evaluate(worked_point.z, worked_point.Q) == 1


def test_evaluate_zero_base():
    with pytest.raises(Exception):
        # the zero z is rejected at point construction already
        from toda_bn import PhasePoint
        PhasePoint(1, (Fraction(0),), (Fraction(1),))
    with pytest.raises(ZeroBaseError):
        LaurentPoly.z_var(1, 1, -1).evaluate((Fraction(0),), (Fraction(1),))


def test_partial_derivative_basics():
    n = 2
    z1i = LaurentPoly.z_var(n, 1, -1)
    assert z1i.partial_derivative("z1") == -1 * LaurentPoly.z_var(n, 1, -2)
    p = (LaurentPoly.one(n) - LaurentPoly.q_var(n, 1)) * LaurentPoly.z_var(n, 1)
    assert p.partial_derivative("Q1") == -1 * LaurentPoly.z_var(n, 1)


def test_partial_derivative_finite_difference(rng):
    """Central finite differences as a smoke check of the exact derivative."""
    p = f_poly(2, 1)
    x = random_point(2, rng)
    d_exact = p.partial_derivative("z1").evaluate(x.z, x.Q)
    h = Fraction(1, 10 ** 6)
    up = p.evaluate((x.z[0] + h, x.z[1]), x.Q)
    dn = p.evaluate((x.z[0] - h, x.z[1]), x.Q)
    d_approx = (up - dn) / (2 * h)
    assert abs(float(d_approx - d_exact)) <= 1e-6 * max(1.0, abs(float(d_exact)))


def test_evaluate_is_ring_homomorphism(rng):
    for _ in range(10):
        a = random_poly(2, rng)
        b = random_poly(2, rng)
        x = random_point(2, rng)
        assert (a * b).evaluate(x.z, x.Q) == a.evaluate(x.z, x.Q) * b.evaluate(x.z, x.Q)
        assert (a + b).evaluate(x.z, x.Q) == a.evaluate(x.z, x.Q) + b.evaluate(x.z, x.Q)


def test_product_rule(rng):
    for _ in range(10):
        a = random_poly(2, rng)
        b = random_poly(2, rng)
        for var in ("z1", "z2", "Q1", "Q2"):
            lhs = (a * b).partial_derivative(var)
            rhs = a.partial_derivative(var) * b + a * b.partial_derivative(var)
            assert lhs == rhs


def test_index_mismatch():
    with pytest.raises(IndexMismatchError):
        LaurentPoly.one(2) + LaurentPoly.one(3)


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        LaurentPoly.one(2).partial_derivative("z3")
    with pytest.raises(UnknownVariableError):
        LaurentPoly.one(2).partial_derivative("w1")


def test_negative_q_exponent_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.monomial(1, (0,), (-1,))


def test_str_deterministic_and_printed_terms(rng):
    p = random_poly(2, rng)
    assert str(p) == str(LaurentPoly(2, dict(p.terms)))
    assert str(LaurentPoly.zero(2)) == "0"
    q = LaurentPoly.q_var(2, 2) * LaurentPoly.z_var(2, 1, -1) * Fraction(3, 2)
    assert str(q) == "3/2 * z1^-1 Q2^1"


# -- evaluate against the term-by-term loop, bit for bit -------------------------


def evaluate_term_by_term(p, z, Q):
    """LaurentPoly.evaluate as a plain loop over the terms: each term is its
    coefficient, as float(c) = numerator / denominator at a float point,
    times z_i ** e and Q_i ** e in variable order, and the terms are added
    in storage order."""
    if len(z) != p.n or len(Q) != p.n:
        raise IndexMismatchError("point size does not match variable count")
    if any(v == 0 for v in z):
        raise ZeroBaseError("evaluation requires all z_i != 0")
    to = float if any(type(v) is float for v in (*z, *Q)) else Fraction
    acc = None
    for (ez, eq), c in p.terms.items():
        term = to(c)
        for base, e in zip(z, ez):
            if e:
                term = term * base ** e
        for base, e in zip(Q, eq):
            if e:
                term = term * base ** e
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0) if all(isinstance(v, (int, Fraction)) for v in z) else 0.0
    return acc


def outcome(f, *args):
    """(type, repr) of f's value, or the class of the exception it raises."""
    try:
        value = f(*args)
    except (ArithmeticError, ModeError) as e:  # a subnormal z_i ** -1 overflows
        return type(e)
    return type(value), repr(value)


def mode_outcome(p, z, Q):
    """evaluate's outcome by linalg.scalars_mode's rule: ModeError where
    Fractions meet floats, the term-by-term value at the all-float point
    where a float occurs, and the term-by-term value in Fractions otherwise."""
    types = {type(v) for v in (*z, *Q)}
    if {Fraction, float} <= types:
        return ModeError
    to = float if float in types else Fraction
    return outcome(evaluate_term_by_term, p, tuple(map(to, z)), tuple(map(to, Q)))


def assert_same_values(polys, z, Q):
    for p in polys:
        assert outcome(p.evaluate, z, Q) == outcome(evaluate_term_by_term, p, z, Q)


def conserved_polys(n):
    return [f_poly(n, i, mode) for mode in ("original", "improved") for i in range(2 * n + 1)]


def lax_polys(n):
    return [entry for row in lax_symbolic(n) for entry in row]


UNIT = st.floats(-1.5, 1.5)
NONZERO_FLOATS = st.floats(-4, 4).filter(lambda v: v != 0)
NONZERO_FRACTIONS = st.fractions(-9, 9, max_denominator=9).filter(lambda v: v != 0)


@settings(max_examples=24, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(UNIT, min_size=n, max_size=n),
                        st.lists(UNIT, min_size=n, max_size=n))))
def test_evaluate_bits_at_float_canonical_points(qp):
    x = to_phase(CanonicalPoint(*qp))
    polys = conserved_polys(x.n) + (lax_polys(x.n) if x.n <= 4 else [])
    assert_same_values(polys, x.z, x.Q)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(NONZERO_FLOATS, min_size=n, max_size=n),
                        st.lists(st.floats(-3, 3), min_size=n, max_size=n))))
def test_evaluate_bits_at_float_points(zq):
    z, Q = map(tuple, zq)
    assert_same_values(conserved_polys(len(z)) + lax_polys(len(z)), z, Q)


def test_evaluate_overflow_matches_term_by_term():
    for z in ((2.2250738585e-313, 1.0), (1e300, -2.0), (1.0, 1e-200)):
        assert_same_values(conserved_polys(2), z, (0.5, 1e200))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(NONZERO_FRACTIONS, min_size=n, max_size=n),
                        st.lists(st.fractions(-9, 9, max_denominator=9),
                                 min_size=n, max_size=n))))
def test_evaluate_exact_at_rational_points(zq):
    z, Q = map(tuple, zq)
    assert_same_values(conserved_polys(len(z)) + lax_polys(len(z)), z, Q)


TYPES = {int: st.integers(-3, 3), Fraction: st.fractions(-9, 9, max_denominator=9),
         float: st.floats(-4, 4)}


@st.composite
def two_type_points(draw, n):
    """(z, Q) with coordinates of two of the types int, Fraction and float;
    the z_i are nonzero, a Q_i may be zero."""
    pair = draw(st.sampled_from([(int, float), (int, Fraction), (Fraction, float)]))
    coords = st.one_of(*(TYPES[t] for t in pair))
    z = draw(st.lists(coords.filter(bool), min_size=n, max_size=n))
    Q = draw(st.lists(coords, min_size=n, max_size=n))
    return tuple(z), tuple(Q)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(two_type_points))
def test_evaluate_bits_at_mixed_points(zq):
    # ints join either mode: an int/float point is the all-float point and an
    # int/Fraction point is exact, while Fractions with floats raise ModeError
    z, Q = zq
    for p in conserved_polys(len(z)):
        assert outcome(p.evaluate, z, Q) == mode_outcome(p, z, Q)


def test_evaluate_rational_z_float_q():
    # Fraction z with float Q mixes the modes; the same z in ints with float
    # Q is a float point, evaluated as the all-float point is
    z = (Fraction(3, 7), Fraction(-5, 3), Fraction(9, 4), Fraction(2, 9))
    zi = (3, -5, 9, 2)
    for Q in ((0.1, -0.7, 0.3, 1.9), (1e-3, 2.5, -0.35, 0.65)):
        for n in (2, 3, 4):
            for p in conserved_polys(n) + lax_polys(n):
                with pytest.raises(ModeError):
                    p.evaluate(z[:n], Q[:n])
                assert outcome(p.evaluate, zi[:n], Q[:n]) == \
                    outcome(evaluate_term_by_term, p, tuple(map(float, zi[:n])), Q[:n])


def test_evaluate_alternating_point_types():
    # one polynomial at points of every mode, in turn
    p = f_poly(3, 3)
    points = [((1.25, -0.5, 2.0), (0.5, -0.75, 0.25)),
              ((Fraction(5, 4), Fraction(-1, 2), 2), (Fraction(1, 2), Fraction(-3, 4), 0)),
              ((2, -1, 3), (1, 2, -1)),
              ((2, -0.5, 3), (1, 0.5, -1)),
              ((Fraction(5, 4), -0.5, 2), (0.5, -0.75, 0))]
    for z, Q in points + points[::-1]:
        assert outcome(p.evaluate, z, Q) == mode_outcome(p, z, Q)
    assert outcome(p.evaluate, *points[2])[0] is Fraction


def test_evaluate_zero_and_constant_polynomials():
    zero, seven = LaurentPoly.zero(2), LaurentPoly.constant(2, Fraction(7, 3))
    for z, Q, to in [((0.5, -2.0), (0.25, 0.0), float),
                     ((1, 2.0), (0, 0), float),
                     ((Fraction(1, 2), 3), (Fraction(1), 0), Fraction),
                     ((1, 2), (0, 0), Fraction)]:
        got = zero.evaluate(z, Q)
        assert type(got) is to and got == 0 and repr(got) == repr(to(0))
        assert_same_values([zero, seven], z, Q)
        # a constant is a float at a float point, as every other value there
        assert outcome(seven.evaluate, z, Q) == (to, repr(to(Fraction(7, 3))))
    one = f_poly(2, 0).evaluate((0.5, -2.0), (0.25, 0.0))
    assert type(one) is float and one.hex() == (1.0).hex()


def test_evaluate_error_cases():
    p = f_poly(2, 1)
    for poly in (p, LaurentPoly.zero(2)):
        with pytest.raises(IndexMismatchError):
            poly.evaluate((1.0, 2.0, 3.0), (0.5, 0.5))
        with pytest.raises(IndexMismatchError):
            poly.evaluate((1.0, 2.0), (0.5,))
        for z in ((0.0, 2.0), (Fraction(1), Fraction(0)), (1, 0)):
            with pytest.raises(ZeroBaseError):
                poly.evaluate(z, (0.5, 0.5))


# -- ring results are built unchecked: they must be what __init__ would build ---


@st.composite
def polys(draw, n):
    keys = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.tuples(*[st.integers(0, 2)] * n))
    coeffs = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4))
    return LaurentPoly(n, draw(st.dictionaries(keys, coeffs, max_size=6)))


def assert_valid_terms(p):
    for key, c in p.terms.items():
        assert type(key) is tuple and len(key) == 2
        for exps in key:
            assert type(exps) is tuple and len(exps) == p.n
            assert all(type(e) is int for e in exps)
        assert all(e >= 0 for e in key[1])
        assert type(c) is Fraction and c != 0
    again = LaurentPoly(p.n, p.terms)
    assert list(again.terms.items()) == list(p.terms.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polys(n), polys(n), st.integers(1, n))))
def test_ring_results_have_valid_terms(abk):
    a, b, k = abk
    for p in (a + b, a - b, a * b, -a, a + 2, 3 * a, a - a, a.partial_derivative(f"z{k}"),
              a.partial_derivative(f"Q{k}"), a.substitute_q_zero()):
        assert_valid_terms(p)


# -- exact evaluation against Fraction terms ------------------------------------


def wide_polys(n):
    """Polynomials with z exponents in [-4, 4], Q exponents up to 3 and
    coefficients with denominators, empty ones included."""
    keys = st.tuples(st.tuples(*[st.integers(-4, 4)] * n), st.tuples(*[st.integers(0, 3)] * n))
    coeffs = st.one_of(st.integers(-5, 5), st.fractions(-7, 7, max_denominator=12))
    return st.dictionaries(keys, coeffs, max_size=8).map(lambda t: LaurentPoly(n, t))


# Fractions and ints of 300 to 400 bits, as on Backlund orbits, small ones and
# plain ints
BIG_FRACTIONS = st.builds(Fraction, st.integers(-2 ** 400, 2 ** 400).filter(bool),
                          st.integers(2 ** 300, 2 ** 400))
BIG_INTS = st.integers(2 ** 300, 2 ** 400) | st.integers(-2 ** 400, -2 ** 300)
EXACT_Z = st.one_of(NONZERO_FRACTIONS, BIG_FRACTIONS, BIG_INTS, st.integers(-5, 5).filter(bool))
EXACT_Q = st.one_of(st.just(0), st.just(Fraction(0)), NONZERO_FRACTIONS, BIG_FRACTIONS,
                    BIG_INTS, st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(wide_polys(n), st.lists(EXACT_Z, min_size=n, max_size=n),
                        st.lists(EXACT_Q, min_size=n, max_size=n))))
def test_exact_evaluate_equals_fraction_terms(pzq):
    # exact at every point of ints and Fractions, an int z_i with a negative
    # exponent included: never a float, never an OverflowError
    p, z, Q = pzq
    exact = evaluate_term_by_term(p, tuple(map(Fraction, z)), tuple(map(Fraction, Q)))
    assert outcome(p.evaluate, z, Q) == (Fraction, repr(exact))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(wide_polys(n), two_type_points(n))))
def test_evaluate_float_and_mixed_points_keep_the_parent_bits(pzq):
    p, (z, Q) = pzq
    floats = (tuple(map(float, z)), tuple(map(float, Q)))
    assert outcome(p.evaluate, *floats) == outcome(evaluate_term_by_term, p, *floats)
    assert outcome(p.evaluate, z, Q) == mode_outcome(p, z, Q)
    types = {type(v) for v in (*z, *Q)}
    if float in types and Fraction not in types:
        assert outcome(p.evaluate, z, Q) == outcome(p.evaluate, *floats)


def test_exact_evaluate_edge_cases():
    big = Fraction(3 ** 200 + 1, 2 ** 320)
    n = 4
    for i in range(2 * n + 1):
        p = f_poly(n, i)
        for z, Q in [((big, -big, Fraction(-7, 3), 5), (0, Fraction(0), big, -2)),
                     ((2, 3, -1, 4), (1, -1, 0, 2)),
                     ((2 ** 400 + 1, -3, 2 ** 1100, -7), (0, 5, -2 ** 1100, 1))]:
            exact = evaluate_term_by_term(p, tuple(map(Fraction, z)), tuple(map(Fraction, Q)))
            assert outcome(p.evaluate, z, Q) == (Fraction, repr(exact))
            with pytest.raises(ZeroBaseError):
                p.evaluate((big, Fraction(0), 1, 2), Q)
    # int ** -1 is a float; evaluate takes the int as a Fraction
    assert outcome(LaurentPoly.z_var(1, 1, -1).evaluate, (3,), (0,)) == \
        (Fraction, repr(Fraction(1, 3)))
    empty = LaurentPoly.zero(2)
    for z, Q in [((big, 3), (0, big)), ((Fraction(1, 2), -1), (Fraction(0), 2))]:
        got = empty.evaluate(z, Q)
        assert type(got) is Fraction and got == 0


# -- float evaluate of the path-formula polynomials, bit for bit ---------------


def hex_outcome(f, *args):
    """outcome(f, *args) with a float value given by its float.hex()."""
    try:
        value = f(*args)
    except (ArithmeticError, ModeError) as e:
        return type(e)
    return type(value), value.hex() if type(value) is float else repr(value)


@pytest.mark.parametrize("n", [5, 6])
def test_f_poly_float_evaluate_bits_equal_term_by_term(n):
    # at a float point, negative z_i included, evaluate keeps every bit of
    # the term loop; FLOAT_PATH_GOLDEN (test_conserved.py) pins these bits
    rng = random.Random(3100 + n)
    for _ in range(5):
        z = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(n))
        Q = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        for p in conserved_polys(n):
            assert hex_outcome(p.evaluate, z, Q) == hex_outcome(evaluate_term_by_term, p, z, Q)


@st.composite
def polys_of_shared_halves(draw, n):
    """Polynomials whose terms draw their z and Q exponent vectors from two
    small pools, so most halves recur; z exponents of both signs."""
    z_pool = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4))
    q_pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    keys = st.tuples(st.sampled_from(z_pool), st.sampled_from(q_pool))
    coeffs = st.one_of(st.integers(-5, 5), st.fractions(-7, 7, max_denominator=12))
    return LaurentPoly(n, draw(st.dictionaries(keys, coeffs, min_size=1, max_size=12)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    polys_of_shared_halves(n), st.lists(NONZERO_FLOATS, min_size=n, max_size=n),
    st.lists(st.floats(-3, 3), min_size=n, max_size=n))))
def test_eval_plan_of_shared_halves_keeps_the_bits(pzq):
    # terms that share their z and Q halves, as the path-formula F_i do
    p, z, Q = pzq
    assert hex_outcome(p.evaluate, tuple(z), tuple(Q)) == \
        hex_outcome(evaluate_term_by_term, p, tuple(z), tuple(Q))
