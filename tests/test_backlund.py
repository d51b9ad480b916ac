import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    DegeneratePointError,
    PhasePoint,
    SingularMatrixError,
    SquareMatrix,
    backlund_conjugate,
    backlund_map,
    build_factors,
    build_lax,
    conserved_values,
    flow_commutation_check,
    hamiltonian,
    iterate,
    kr_factors,
    membership,
    to_phase,
)
from toda_bn.backlund import KR_CHECK_RTOL, _aux
from toda_bn.conserved import _conserved_values_exact
from toda_bn.errors import NotInGammaError, TodaError
from toda_bn.lax import _build_lax_exact
from toda_bn.linalg import conjugate, solve
from toda_bn.splitting import factor_minus_plus
from toda_bn.verify import (printed_backlund_n2, random_canonical, random_matrix, random_point,
                            random_rational, sample_generic)


def test_kr_worked_point(worked_point):
    fac = kr_factors(worked_point)
    assert _aux(worked_point)[2][1] == Fraction(2, 3)  # M_1
    assert fac.K.block(0, 0, 2).rows == ((3, 1), (3, 3))
    assert fac.K[2, 1] == Fraction(6, 5)  # M_1 a_2 b_2 = (2/3)(3/5)(3)
    _, _, c = build_factors(worked_point)
    assert fac.K @ fac.R.inverse() == c


def test_kr_q_zero(rng):
    n = 3
    x = PhasePoint(n, tuple(random_rational(rng) for _ in range(n)), (Fraction(0),) * n)
    fac = kr_factors(x)
    _, _, c = build_factors(x)
    assert fac.K @ fac.R.inverse() == c


def test_kr_random_points(rng):
    for n in (2, 3, 4):
        done = 0
        while done < 8:
            x = random_point(n, rng)
            try:
                fac = kr_factors(x)
            except DegeneratePointError:
                continue
            _, _, c = build_factors(x)
            assert fac.K @ fac.R.inverse() == c
            assert membership(fac.K, "G_minus")
            assert membership(fac.R, "G_plus")
            done += 1


def test_kr_rejects_n1():
    with pytest.raises(DegeneratePointError):
        kr_factors(PhasePoint(1, (Fraction(2),), (Fraction(1, 3),)))


@pytest.mark.parametrize("n", range(2, 6))
def test_every_route_names_the_same_vanishing_m_i(rng, n):
    # M_i = 0 where Q_i = z_{i+1} / z_i: the closed form, K/R and the
    # conjugation route name i, and the factorization of L^-1 that K/R
    # writes in closed form meets a vanishing leading minor at n - 1 - i
    def generic(x):  # none raises off the locus
        backlund_map(x)
        backlund_conjugate(x)
        factor_minus_plus(build_lax(x).inverse())

    for i in range(1, n):
        x, _, _ = sample_generic(lambda: random_point(n, rng), generic)
        Q = list(x.Q)
        Q[i - 1] = x.z[i] / x.z[i - 1]
        x = PhasePoint(n, x.z, tuple(Q))
        for route in (backlund_map, kr_factors, backlund_conjugate):
            with pytest.raises(DegeneratePointError) as raised:
                route(x)
            assert str(raised.value) == f"M_{i} = 1 - Q_{i} z_{i} / z_{i + 1} vanishes"
        with pytest.raises(DegeneratePointError) as raised:
            factor_minus_plus(build_lax(x).inverse())
        assert str(raised.value) == f"vanishing leading minor at index {n - 1 - i}"


def _k_factors(rng, n, count, mode="exact"):
    """K of kr_factors at `count` random points of rank n where it exists,
    with each point's L."""
    out = []
    while len(out) < count:
        x = random_point(n, rng)
        x = x.to_float() if mode == "float" else x
        try:
            out.append((kr_factors(x).K, build_lax(x), x))
        except DegeneratePointError:
            continue
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_band_solve_equals_the_dense_inverse(rng, n):
    # K X = B checked by the product, which shares no code with the solve
    for K, L, x in _k_factors(rng, n, 3):
        assert K.det() == math.prod(x.z) ** 2  # so K is invertible wherever it exists
        for B in (L @ K, random_matrix(2 * n, rng)):
            assert K @ solve(K, B) == B


def test_band_solve_interchanges_past_a_zero_pivot(rng):
    # in both modes, at columns 0 and 2
    rows = [[0, 2, 0, 0], [3, 1, 4, 0], [0, 5, 0, 6], [0, 0, 7, 1]]
    A, B = SquareMatrix(rows), random_matrix(4, rng)
    X = solve(A, B)
    assert A @ X == B
    got = solve(SquareMatrix(rows, "float"), SquareMatrix(B.rows, "float"))
    assert all(abs(got[i, j] - X[i, j]) <= 1e-14 * max(1, abs(X[i, j]))
               for i in range(4) for j in range(4))


def test_float_band_solve_pivots_on_the_larger_entry():
    # eliminating with the tiny pivot 1e-20 would leave x_1 = 0
    A = SquareMatrix([[1e-20, 1.0], [1.0, 1.0]])
    X = solve(A, SquareMatrix([[1.0, 0.0], [2.0, 0.0]]))
    assert abs(X[0, 0] - 1.0) <= 1e-15 and abs(X[1, 0] - 1.0) <= 1e-15


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("rows, column", [
    ([[0, 0], [0, 1]], 0),
    ([[1, 2], [2, 4]], 1),
    ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 1),
])
def test_band_solve_rejects_a_singular_band(mode, rows, column):
    A = SquareMatrix(rows, mode)
    with pytest.raises(SingularMatrixError, match=f"singular at column {column}$"):
        solve(A, SquareMatrix.identity(A.dim, mode))


@pytest.mark.parametrize("n", range(2, 9))
def test_band_conjugate_equals_the_dense_route(rng, n):
    # at random points, then along a 12-step orbit from one of them
    points = _k_factors(rng, n, 3)
    x = points[-1][2]
    for _ in range(12):
        try:
            x = backlund_map(x)
            points.append((kr_factors(x).K, build_lax(x), x))
        except DegeneratePointError:
            break
    assert len(points) > 3
    for K, L, _ in points:
        assert K @ conjugate(K, L) == L @ K


def test_kr_factors_are_canonical(rng):
    for mode in ("exact", "float"):
        for n in (2, 3, 5):
            fac = kr_factors(_k_factors(rng, n, 1, mode)[0][2])
            for m in (fac.K, fac.R):
                assert m.mode == mode and m == SquareMatrix(m.rows, mode)
                assert all(type(v) is (Fraction if mode == "exact" else float)
                           for row in m.rows for v in row)


def test_kr_factors_keeps_the_overflow_error():
    # Q_1 z_1 overflows; every other entry is inf, nan or finite, so the
    # check of Q_k z_k is what stops the factorization, and the closed-form
    # map, which shares it, stops with the same message
    x = PhasePoint(2, (1e300, 2.0), (1e10, 0.5))
    for route in (kr_factors, backlund_map):
        with pytest.raises(ValueError, match=r"^Q_1 z_1 overflows: 10000000000\.0 \* 1e\+300$"):
            route(x)


def test_float_conjugate_rejects_a_non_finite_k():
    # K's entries overflow to inf and NaN; kr_factors names one rather than
    # returning K, so the conjugation route stops there too
    x = PhasePoint(2, (1e200, 1e-200), (0.5, 0.5))
    for call in (kr_factors, backlund_conjugate):
        with pytest.raises(ValueError, match="^non-finite entry nan of K at row 1, column 0$"):
            call(x)


def test_float_routes_name_a_product_past_the_float_range():
    # z_2 z_3 underflows to 0.0 as N_1's divisor, and M_1 = 1 - 0.5 / 1e-200
    # squares past the float range; both raised bare arithmetic errors
    x = PhasePoint(3, (1.0, 1e-200, 1e-200), (0.5, 0.5, 0.5))
    for call in (kr_factors, backlund_conjugate):
        with pytest.raises(ValueError, match=r"^z_2 z_3 underflows to 0\.0: 1e-200 \* 1e-200$"):
            call(x)
    with pytest.raises(ValueError, match=r"^M_1 \*\* 2 overflows: -5e\+199$"):
        backlund_map(x)


def test_float_map_names_a_square_that_underflows():
    # z_2 ** 2 divides Q_1+ and underflows to 0.0
    with pytest.raises(ValueError, match=r"^z_2 \*\* 2 underflows to 0\.0: 1e-200$"):
        backlund_map(PhasePoint(2, (1.0, 1e-200), (1e-210, 0.5)))


def test_float_conjugate_names_a_z_read_that_underflows():
    # K and L K are finite, and the elimination gives an L+ whose last row
    # reads z_2 = -L+[3, 3] / L+[3, 2] as 0.0; Q_1 = 1 - L+[0, 0] / z_1 divided by it
    x = PhasePoint(2, (3.97e-207, -2.58e-14), (2.1e35, -2.46e-281))
    with pytest.raises(ValueError, match=r"^z_2 read off L underflows to 0\.0$"):
        backlund_conjugate(x)


_LOG_UNIFORM = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
    lambda se: se[0] * 10.0 ** se[1])


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_LOG_UNIFORM, min_size=2 * n, max_size=2 * n))))
def test_float_routes_raise_only_named_errors_at_log_uniform_points(case):
    n, coords = case
    x = PhasePoint(n, tuple(coords[:n]), tuple(coords[n:]))
    for call in (kr_factors, backlund_map, backlund_conjugate):
        try:
            call(x)
        except (TodaError, ValueError):
            pass


def test_float_backlund_conjugate_keeps_its_bits():
    # the digest of these steps' coordinates (and of the two TodaErrors on
    # the way) as the band solve gave them before it moved into linalg
    rng = random.Random(2027)
    out = []
    for n in range(2, 9):
        for _ in range(6):
            x = random_point(n, rng).to_float()
            for _ in range(3):
                try:
                    x = backlund_conjugate(x)
                    out.append((x.z, x.Q))
                except TodaError as e:
                    out.append(type(e).__name__)
                    break
    assert len(out) == 122
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "ed2ee4fb43c00f59d809580d768a31adb868c5a4474a8dd942efafef110e96ff")


@pytest.mark.parametrize("n", range(2, 9))
def test_float_band_solve_agrees_with_the_dense_route(rng, n):
    # the oracle is the exact solve at the same binary64 point, which shares
    # no float code with the solve under test
    for K, L, _ in _k_factors(rng, n, 3, "float"):
        B = L @ K
        exact = solve(*(SquareMatrix([[Fraction(v) for v in r] for r in m.rows])
                        for m in (K, B)))
        got = solve(K, B)
        scale = max(exact.max_abs(), 1)
        assert all(abs(Fraction(got[i, j]) - exact[i, j]) <= KR_CHECK_RTOL * scale
                   for i in range(2 * n) for j in range(2 * n))


def test_backlund_worked_point(worked_point):
    xp = backlund_map(worked_point)
    assert xp.z == (6, -5)
    assert xp.Q == (Fraction(1, 2), Fraction(6, 5))
    assert hamiltonian(worked_point) == Fraction(61, 15)
    assert hamiltonian(xp) == Fraction(61, 15)
    assert backlund_conjugate(worked_point) == xp


def test_backlund_n1_closed_form():
    x = PhasePoint(1, (Fraction(3, 2),), (Fraction(1, 4),))
    xp = backlund_map(x)
    # pinned conventions give Q+ = z^2 Q and z+ = z / (1 - Q+)
    assert xp.Q == (Fraction(9, 16),)
    assert xp.z == (Fraction(3, 2) / (1 - Fraction(9, 16)),)


def test_two_routes_agree(rng):
    for n in (2, 3, 4):
        done = 0
        while done < 8:
            x = random_point(n, rng)
            try:
                a = backlund_map(x)
                b = backlund_conjugate(x)
            except DegeneratePointError:
                continue
            assert a == b
            assert conserved_values(a) == conserved_values(x)
            done += 1


def test_printed_n2_formulas(rng):
    done = 0
    while done < 20:
        x = random_point(2, rng)
        try:
            assert backlund_map(x) == printed_backlund_n2(x)
        except DegeneratePointError:
            continue
        done += 1


def test_q_zero_fixed_point(rng):
    x = PhasePoint(3, tuple(random_rational(rng) for _ in range(3)), (Fraction(0),) * 3)
    assert backlund_map(x) == x


#: M_1 of its image vanishes, so each route's step 2 is undefined.
DEGENERATE_AT_STEP_2 = PhasePoint(2, (Fraction(-2), Fraction(-1)), (Fraction(3, 2), Fraction(-1, 3)))


def test_iterate(worked_point, rng):
    assert iterate(worked_point, 0) == [worked_point]
    seq = iterate(worked_point, 10)
    assert len(seq) == 11
    f0 = conserved_values(worked_point)
    assert all(conserved_values(s) == f0 for s in seq)
    assert iterate(worked_point, 10, backlund_conjugate) == seq
    for n in (2, 3, 4):
        for _ in range(3):
            x, (a, b), _ = sample_generic(
                lambda: random_point(n, rng),
                lambda p: (iterate(p, 8, backlund_map), iterate(p, 8, backlund_conjugate)))
            assert len(a) == 9 and a == b


@pytest.mark.parametrize("step", [None, backlund_map, backlund_conjugate])
def test_iterate_names_the_degenerate_step(step):
    assert len(iterate(DEGENERATE_AT_STEP_2, 1, step)) == 2
    with pytest.raises(DegeneratePointError) as raised:
        iterate(DEGENERATE_AT_STEP_2, 3, step)
    assert str(raised.value) == "step 2: M_1 = 1 - Q_1 z_1 / z_2 vanishes"


def test_iterate_keeps_the_class_of_every_package_error(worked_point):
    def step(x):
        if x != worked_point:
            raise NotInGammaError("zero entry at (3, 3)")
        return backlund_map(x)

    with pytest.raises(NotInGammaError) as raised:
        iterate(worked_point, 3, step)
    assert str(raised.value) == "step 2: zero entry at (3, 3)"
    with pytest.raises(ValueError, match="^need steps >= 0$"):
        iterate(worked_point, -1)


def test_flow_commutation(rng):
    x = to_phase(random_canonical(2, rng))
    assert flow_commutation_check(x, t=0.0).discrepancy == 0.0
    rep = flow_commutation_check(x, t=0.2, h=1e-3)
    assert rep.discrepancy < 1e-6


def _orbit_both_routes(x, steps, before_call):
    """[(map point, conjugate point, their F), ...] along an exact orbit."""
    out = []
    a = b = x
    for k in range(steps + 1):
        before_call()
        fa = conserved_values(a)
        before_call()
        out.append((a, b, fa, conserved_values(b)))
        if k < steps:
            before_call()
            a = backlund_map(a)
            before_call()
            b = backlund_conjugate(b)
    return out


def _clear_memos():
    _build_lax_exact.cache_clear()
    _conserved_values_exact.cache_clear()


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_is_the_same_with_warm_or_cleared_memos(rng, n):
    while True:
        x = random_point(n, rng)
        try:
            cold = _orbit_both_routes(x, 12, _clear_memos)
            break
        except DegeneratePointError:
            continue
    hits = _build_lax_exact.cache_info().hits
    warm = _orbit_both_routes(x, 12, lambda: None)
    assert _build_lax_exact.cache_info().hits > hits
    assert warm == cold
    f0 = cold[0][2]
    for a, b, fa, fb in warm:
        assert a == b
        assert fa == fb == f0
