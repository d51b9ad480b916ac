import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    GammaReport,
    LaurentPoly,
    NotInGammaError,
    PhasePoint,
    SquareMatrix,
    build_factors,
    build_lax,
    gamma_membership,
    lax_symbolic,
    parameters_from_lax,
)
from toda_bn.conserved import _conserved_values_exact, conserved_values
from toda_bn.backlund import iterate
from toda_bn.lax import RECOVERY_RTOL, _build_lax_exact, _inverse_by_gamma2, evaluate_matrix
from toda_bn.linalg import close
from toda_bn.verify import lu_read, printed_lax_n2, random_point, random_rational


def test_factors_n1():
    x = PhasePoint(1, (Fraction(2),), (Fraction(1, 3),))
    n, b, c = build_factors(x)
    assert n == SquareMatrix([[2, 0], [0, 1]])
    assert b == SquareMatrix([[1, 1], [0, 1]])
    assert c == SquareMatrix([[1, 0], [Fraction(2, 3), 2]])


def test_factor_c_entries_n2(rng):
    x = random_point(2, rng)
    _, _, c = build_factors(x)
    assert c[2, 1] == x.Q[1] * x.z[1]  # P block at row n+1, column n
    assert c[1, 0] == x.Q[0] * x.z[0]  # subdiagonal of J N22 J


def test_det_c_is_product_of_z(rng):
    for n in range(1, 5):
        for _ in range(8):
            x = random_point(n, rng)
            _, _, c = build_factors(x)
            prod = Fraction(1)
            for v in x.z:
                prod *= v
            assert c.det() == prod


def test_lax_n1_closed_form():
    x = PhasePoint(1, (Fraction(2),), (Fraction(1, 3),))
    assert build_lax(x) == SquareMatrix(
        [[Fraction(4, 3), 1], [Fraction(-1, 3), Fraction(1, 2)]])


def test_lax_worked_point_entries(worked_point):
    L = build_lax(worked_point)
    assert L[0, 0] == 1
    assert L[1, 0] == Fraction(-12, 5)
    assert L[3, 3] == Fraction(1, 2)


def test_lax_symbolic_matches_printed_display():
    assert lax_symbolic(2) == printed_lax_n2()


def test_lax_symbolic_matches_numeric(rng):
    for n in (1, 2, 3):
        sym = lax_symbolic(n)
        for _ in range(5):
            x = random_point(n, rng)
            assert evaluate_matrix(sym, x) == build_lax(x)


# -- the builder against its factors: L C = N B needs no inverse ---------------

NONZERO_FRACTIONS = st.fractions(-9, 9, max_denominator=9).filter(lambda v: v != 0)
RATIONAL_POINTS = st.integers(1, 8).flatmap(lambda n: st.builds(
    PhasePoint, st.just(n),
    st.lists(NONZERO_FRACTIONS, min_size=n, max_size=n).map(tuple),
    st.lists(st.fractions(-9, 9, max_denominator=9), min_size=n, max_size=n).map(tuple)))


@settings(max_examples=60, deadline=None)
@given(RATIONAL_POINTS)
def test_lax_times_c_is_n_times_b_exact(x):
    N, B, C = build_factors(x)
    L = build_lax(x)
    assert all(type(v) is Fraction for row in L.rows for v in row)
    assert L @ C == N @ B


def symbolic_factors(n):
    """N B and C over LaurentPoly, entry by entry from their definitions."""
    d = 2 * n
    zero, one = LaurentPoly.zero(n), LaurentPoly.one(n)
    z = [LaurentPoly.z_var(n, k) for k in range(1, n + 1)]
    qz = [LaurentPoly.q_var(n, k) * z[k - 1] for k in range(1, n + 1)]
    nb = [[zero] * d for _ in range(d)]
    c = [[zero] * d for _ in range(d)]
    for i in range(n):
        # N B = [[N11, N11 J], [0, N22]]
        nb[i][i] = nb[i][d - 1 - i] = z[i]
        nb[n + i][n + i] = one
        # C = [[J N22 J, 0], [P, J N11 J]]
        c[i][i] = one
        c[n + i][n + i] = z[n - 1 - i]
        if i + 1 < n:
            nb[i][i + 1] = nb[i][d - 2 - i] = one
            nb[n + i][n + i + 1] = qz[n - 2 - i]
            c[i + 1][i] = qz[i]
            c[n + i + 1][n + i] = one
    c[n][n - 1] = qz[n - 1]
    return nb, c


def poly_product(a, b):
    """The product of two square matrices with LaurentPoly entries."""
    zero = LaurentPoly.zero(a[0][0].n)
    return [[sum((u * v for u, v in zip(row, col)), zero) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("n", range(1, 6))
def test_lax_symbolic_times_c_is_n_times_b(rng, n):
    nb, c = symbolic_factors(n)
    assert poly_product(lax_symbolic(n), c) == nb
    x = random_point(n, rng)  # the factors here are build_factors' at a point
    N, B, C = build_factors(x)
    assert evaluate_matrix(nb, x) == N @ B
    assert evaluate_matrix(c, x) == C


@pytest.mark.parametrize("n", range(1, 5))
def test_symbolic_lax_inverse_times_lax_is_identity(n):
    # the Gamma_2 read of the symbolic L is its inverse over LaurentPoly
    zero, one = LaurentPoly.zero(n), LaurentPoly.one(n)
    identity = [[one if i == j else zero for j in range(2 * n)] for i in range(2 * n)]
    L = lax_symbolic(n)
    A = _inverse_by_gamma2(n, L, LaurentPoly.q_var(n, n), one, zero)
    assert poly_product(A, L) == identity


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_lax_inverse_has_the_gamma1_shape(rng, n):
    # the Gamma_2 read of L is upper Hessenberg, with 1 on the subdiagonal
    # of the last n - 1 rows (0-based rows i > n), as gamma_membership
    # requires of L^{-1}, and it is L's inverse: at random draws, at Q = 0
    # and along a Backlund orbit
    x = random_point(n, rng)
    q_zero = PhasePoint(n, random_point(n, rng).z, (Fraction(0),) * n)
    for y in (*iterate(x, 2), q_zero):
        A = _inverse_by_gamma2(n, build_lax(y).rows, y.Q[-1], Fraction(1), Fraction(0))
        assert all(A[i][j] == 0 for i in range(2 * n) for j in range(i - 1))
        assert all(A[i][i - 1] == 1 for i in range(n + 1, 2 * n))
        assert A == [list(row) for row in build_lax(y).inverse().rows]
        assert gamma_membership(SquareMatrix(A).inverse()).in_gamma


#: Relative bound, against max(1, max|L(exact)|), of float build_lax.
FLOAT_LAX_RTOL = 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_float_lax_near_exact(rng, n):
    # the exact matrix is that of the same binary64 point, so only the
    # float build rounds
    for _ in range(4):
        z = tuple(rng.choice((-1, 1)) * rng.uniform(0.25, 4) for _ in range(n))
        Q = tuple(rng.uniform(-0.9, 0.9) for _ in range(n))
        got = build_lax(PhasePoint(n, z, Q))
        exact = build_lax(PhasePoint(n, tuple(map(Fraction, z)), tuple(map(Fraction, Q))))
        scale = max(1, max(abs(v) for row in exact.rows for v in row))
        assert got.mode == "float"
        for g, e in zip((v for row in got.rows for v in row),
                        (v for row in exact.rows for v in row)):
            assert abs(Fraction(g) - e) <= FLOAT_LAX_RTOL * scale, (g, e)


def test_upper_right_block_is_reversal(rng):
    for n in (1, 2, 3):
        x = random_point(n, rng)
        L = build_lax(x)
        assert L.block(0, n, n) == SquareMatrix.reversal(n)


def test_char_poly_palindromic(rng):
    for n in (1, 2, 3):
        x = random_point(n, rng)
        coeffs = build_lax(x).char_poly()
        assert coeffs == coeffs[::-1]


def test_lax_in_gamma(rng):
    for n in range(1, 5):
        for _ in range(10):
            rep = gamma_membership(build_lax(random_point(n, rng)))
            assert rep.in_gamma, rep


def test_identity_not_in_gamma2():
    rep = gamma_membership(SquareMatrix.identity(4))
    assert not rep.in_gamma2 and not rep.in_gamma


def test_gamma_report_is_a_tuple_with_a_default():
    rep = GammaReport(True, True)
    assert rep.first_violation is None and rep.in_gamma
    assert rep == (True, True, None)
    in_gamma1, in_gamma2, first = GammaReport(True, False, ("gamma2:upper-right-of-L", 0, 1))
    assert (in_gamma1, in_gamma2, first[0]) == (True, False, "gamma2:upper-right-of-L")
    assert not GammaReport(False, True).in_gamma


def test_gamma1_violation_reported(rng):
    """Perturbing a forbidden zero of L^{-1} must fail with that index."""
    x = random_point(2, rng)
    A = build_lax(x).inverse()
    # (3, 0) sits in the lower-left zero block of the inverse (0-based)
    tampered = A.with_entry(3, 0, A[3, 0] + 1)
    rep = gamma_membership(tampered.inverse())
    assert not rep.in_gamma1
    assert rep.first_violation == ("gamma1", 3, 0)


# -- Gamma_1 as a shape against the entry scan it replaced -----------------------


def old_gamma_membership(L):
    """The five-branch scan of every entry of L^{-1}, and the Gamma_2 blocks."""
    d = L.dim
    n = d // 2
    A = L.inverse()
    mode = L.mode
    scale = max(L.max_abs(), A.max_abs()) if mode == "float" else 0.0
    violation = None

    def viol(which, i, j):
        nonlocal violation
        if violation is None:
            violation = (which, i, j)

    def is_zero(v):
        return close(v, 0, mode, RECOVERY_RTOL, scale)

    in_g1 = True
    for i in range(d):
        for j in range(d):
            v = A[i, j]
            ok = True
            if i < n and j < n:
                ok = (i <= j + 1) or is_zero(v)
            elif i == n and j < n - 1:
                ok = is_zero(v)
            elif i > n and j < n:
                ok = is_zero(v)
            elif i > n and n <= j < i - 1:
                ok = is_zero(v)
            elif i > n and j == i - 1:
                ok = is_zero(v - 1)
            if not ok:
                in_g1 = False
                viol("gamma1", i, j)
    J = SquareMatrix.reversal(n, mode)
    in_g2 = True
    blocks = [
        ("gamma2:upper-right-of-L", L.block(0, n, n), J),
        ("gamma2:upper-right-of-inverse", A.block(0, n, n), -J),
        ("gamma2:upper-left-of-inverse", A.block(0, 0, n), L.block(n, n, n).flip()),
        ("gamma2:lower-right-of-inverse", A.block(n, n, n), L.block(0, 0, n).flip()),
    ]
    for name, got, expect in blocks:
        diff = got - expect
        for i in range(n):
            for j in range(n):
                if not is_zero(diff[i, j]):
                    in_g2 = False
                    viol(name, i, j)
    return in_g1, in_g2, violation


def report_tuple(rep):
    return rep.in_gamma1, rep.in_gamma2, rep.first_violation


def sparse_hessenberg_inverse(n, rng):
    """A random exact 2n x 2n matrix, mostly zero below its subdiagonal and
    mostly 1 on it, so it is in or near the Gamma_1 shape."""
    d = 2 * n

    def entry(i, j):
        if j < i - 1:
            return random_rational(rng) if rng.random() < 0.07 else Fraction(0)
        if j == i - 1:
            return Fraction(1) if rng.random() < 0.8 else rng.choice([Fraction(0),
                                                                      random_rational(rng)])
        return random_rational(rng) if rng.random() < 0.7 else Fraction(0)

    return SquareMatrix([[entry(i, j) for j in range(d)] for i in range(d)], "exact")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma1_shape_equals_the_entry_scan_on_sparse_inverses(rng, n, mode):
    members = 0
    for _ in range(150):
        A = sparse_hessenberg_inverse(n, rng)
        if A.det() == 0:
            continue
        if mode == "float":
            A = SquareMatrix([[float(v) for v in r] for r in A.rows], "float")
        rep = gamma_membership(A.inverse())
        assert report_tuple(rep) == old_gamma_membership(A.inverse())
        members += rep.in_gamma1
    assert 0 < members < 150  # both outcomes occur


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_membership_equals_the_entry_scan_on_tampered_lax(rng, n, mode):
    d = 2 * n
    for _ in range(4):
        x = random_point(n, rng)
        L = build_lax(x if mode == "exact" else x.to_float())
        assert report_tuple(gamma_membership(L)) == old_gamma_membership(L) == (True, True, None)
        A = L.inverse()
        for i in range(d):
            for j in range(d):
                for M, inverted in ((L, False), (A, True)):
                    bad = M.with_entry(i, j, M[i, j] + 1)
                    if bad.det() == 0:
                        continue
                    if inverted:
                        bad = bad.inverse()
                    assert report_tuple(gamma_membership(bad)) == old_gamma_membership(bad)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gamma_membership_names_the_first_broken_condition(worked_point, mode):
    # Gamma_1 is reported before Gamma_2, and Gamma_2 block by block.  Once
    # L's upper right block is J and L^{-1}'s is -J, L L^{-1} = E forces the
    # other two blocks, so no inverse can break one of those first.
    x = worked_point if mode == "exact" else worked_point.to_float()
    L = build_lax(x)
    A = L.inverse()
    one = SquareMatrix.identity(4, mode)
    # diag(2, 1, 1, 1) L diag(1/2, 1, 1, 1) keeps L^{-1}'s shape and scales row 0 of J
    scaled = one.with_entry(0, 0, 2) @ L @ one.with_entry(0, 0, Fraction(1, 2))
    controls = [
        (A.with_entry(3, 0, A[3, 0] + 1).inverse(), ("gamma1", 3, 0)),
        (scaled, ("gamma2:upper-right-of-L", 0, 1)),
        (L.with_entry(0, 0, L[0, 0] + 1), ("gamma2:upper-right-of-inverse", 0, 1)),
    ]
    for bad, first in controls:
        rep = gamma_membership(bad)
        assert rep.first_violation == first
        assert report_tuple(rep) == old_gamma_membership(bad)


def test_parameter_roundtrip(rng):
    for n in range(1, 6):
        for _ in range(10):
            x = random_point(n, rng)
            assert parameters_from_lax(build_lax(x)) == x


def test_parameter_roundtrip_degenerate_corner():
    x = PhasePoint(3, (Fraction(1),) * 3, (Fraction(0),) * 3)
    assert parameters_from_lax(build_lax(x)) == x


def test_parameter_roundtrip_worked_point(worked_point):
    assert parameters_from_lax(build_lax(worked_point)) == worked_point


@pytest.mark.parametrize("n", range(1, 9))
def test_read_off_equals_the_lu_route(rng, n):
    ones = PhasePoint(n, (Fraction(1),) * n, (Fraction(0),) * n)
    for x in [ones] + [random_point(n, rng) for _ in range(6)]:
        L = build_lax(x)
        assert parameters_from_lax(L) == lu_read(L) == x


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_zero_in_the_last_row_is_not_in_gamma(worked_point, mode):
    x = worked_point if mode == "exact" else worked_point.to_float()
    L = build_lax(x)
    for j in (2, 3):  # the last-row entries the read-off divides by
        with pytest.raises(NotInGammaError, match=rf"zero entry at \(3, {j}\)"):
            parameters_from_lax(L.with_entry(3, j, 0))


def _rebuild_edge(a: float) -> float:
    """The float b > a furthest from a that the rebuild check accepts:
    |a - b| <= RECOVERY_RTOL * max(|a|, |b|, 1)."""
    def inside(b):
        return abs(a - b) <= RECOVERY_RTOL * max(abs(a), abs(b), 1.0)

    b = a + RECOVERY_RTOL * max(abs(a), 1.0)
    while inside(b):
        b = math.nextafter(b, math.inf)
    while not inside(b):
        b = math.nextafter(b, -math.inf)
    return b


@pytest.mark.parametrize("n", [2, 3, 4])
def test_float_rebuild_check_at_its_tolerance(rng, n):
    # an entry the read-off does not use, changed to one float step inside
    # the tolerance and one step outside: a 0 of the J block (scale 1) and
    # the largest unused entry (scale max(|a|, |b|) > 1)
    x = random_point(n, rng).to_float()
    L = build_lax(x)
    y = parameters_from_lax(L)
    rebuilt = build_lax(y)
    read = {(i, i) for i in range(n)} | {(2 * n - 1, j) for j in range(n, 2 * n)}
    largest = max((ij for ij in itertools.product(range(2 * n), repeat=2) if ij not in read),
                  key=lambda ij: abs(rebuilt[ij]))
    assert rebuilt[0, n] == 0.0 and abs(rebuilt[largest]) > 1
    for i, j in ((0, n), largest):
        edge = _rebuild_edge(rebuilt[i, j])
        assert parameters_from_lax(L.with_entry(i, j, edge)) == y
        with pytest.raises(NotInGammaError, match=rf"rebuilt Lax matrix differs at \({i}, {j}\)"):
            parameters_from_lax(L.with_entry(i, j, math.nextafter(edge, math.inf)))


def test_not_in_gamma_detected(worked_point):
    L = build_lax(worked_point)
    bad = L.with_entry(0, 3, L[0, 3] + 1)  # break the J block
    with pytest.raises(NotInGammaError):
        parameters_from_lax(bad)


def test_not_in_gamma_detected_on_a_memo_hit(rng):
    # A perturbed entry on or above the diagonal of the upper-right J block
    # leaves every read intact, so recovery reaches the rebuild of the very
    # point L was built from; that build comes from the memo, and the
    # entrywise check must still reject the matrix.
    for n in (2, 3, 4):
        x = random_point(n, rng)
        L = build_lax(x)
        for i in range(n):
            for j in range(n + i, 2 * n):
                bad = L.with_entry(i, j, L[i, j] + 1)
                _build_lax_exact.cache_clear()
                build_lax(x)
                with pytest.raises(NotInGammaError,
                                   match=rf"rebuilt Lax matrix differs at \({i}, {j}\)"):
                    parameters_from_lax(bad)
                assert _build_lax_exact.cache_info().hits == 1


def test_float_points_bypass_the_memos(rng):
    x = random_point(3, rng).to_float()
    before = (_build_lax_exact.cache_info(), _conserved_values_exact.cache_info())
    for _ in range(2):
        assert parameters_from_lax(build_lax(x)).mode == "float"
        conserved_values(x)
    assert (_build_lax_exact.cache_info(), _conserved_values_exact.cache_info()) == before


def test_phase_point_hash_is_the_value_hash(rng):
    # the cached hash is the dataclass's hash of (n, z, Q), for points made
    # by the constructor or by _trusted, and equal points share it
    for x in (random_point(3, rng), random_point(2, rng).to_float()):
        y = PhasePoint._trusted(x.n, x.z, x.Q)
        assert hash(x) == hash(x) == hash(y) == hash((x.n, x.z, x.Q))
        assert {x: 1}[y] == 1


@pytest.mark.parametrize("n", [2.0, True])
def test_phase_point_rejects_a_rank_that_is_not_an_int(worked_point, n):
    z, Q = worked_point.z, worked_point.Q
    with pytest.raises(ValueError) as rejected:
        PhasePoint(n, z, Q)
    assert str(rejected.value) == f"rank n must be an integer, got {n!r}"
    assert PhasePoint._trusted(n, z, Q).n is n  # the unchecked route stays unchecked


@pytest.mark.parametrize("n", [2.9, "2"])
def test_json_point_rejects_a_rank_that_is_not_an_int(n):
    with pytest.raises(ValueError) as rejected:
        PhasePoint.from_json_obj({"n": n, "z": ["2", "3"], "Q": ["1/2", "1/5"]})
    assert str(rejected.value) == f"rank n must be an integer, got {n!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_point_rejects_a_float_that_is_not_finite(bad):
    for z, Q in (((bad, 1.0), (0.5, 0.5)), ((2.0, 1.0), (0.5, bad))):
        with pytest.raises(ValueError, match="^coordinates must be finite$"):
            PhasePoint(2, z, Q)


def test_phase_point_is_a_frozen_record(worked_point):
    assert repr(worked_point) == ("PhasePoint(n=2, z=(Fraction(2, 1), Fraction(3, 1)), "
                                  "Q=(Fraction(1, 2), Fraction(1, 5)))")
    assert worked_point != (worked_point.n, worked_point.z, worked_point.Q)
    assert worked_point == PhasePoint(2, (2, 3), (Fraction(1, 2), Fraction(1, 5)))


def test_phase_point_json(worked_point):
    obj = worked_point.to_json_obj()
    assert obj == {"n": 2, "z": ["2", "3"], "Q": ["1/2", "1/5"]}
    assert PhasePoint.from_json_obj(obj) == worked_point
    xf = worked_point.to_float()
    assert xf.mode == "float"
    assert PhasePoint.from_json_obj(xf.to_json_obj()) == xf
