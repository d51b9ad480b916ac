from fractions import Fraction

import pytest

from toda_bn import (
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
from toda_bn.lax import _build_lax_exact, evaluate_matrix
from toda_bn.verify import printed_lax_n2, random_point


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


def test_upper_right_block_is_reversal(rng):
    for n in (1, 2, 3):
        x = random_point(n, rng)
        L = build_lax(x)
        assert L.block(0, n, n) == SquareMatrix.reversal(n)


def test_char_poly_palindromic(rng):
    for n in (1, 2, 3):
        x = random_point(n, rng)
        assert build_lax(x).char_poly().is_palindromic()


def test_lax_in_gamma(rng):
    for n in range(1, 5):
        for _ in range(10):
            rep = gamma_membership(build_lax(random_point(n, rng)))
            assert rep.in_gamma, rep


def test_identity_not_in_gamma2():
    rep = gamma_membership(SquareMatrix.identity(4))
    assert not rep.in_gamma2


def test_gamma1_violation_reported(rng):
    """Perturbing a forbidden zero of L^{-1} must fail with that index."""
    x = random_point(2, rng)
    A = build_lax(x).inverse()
    # (3, 0) sits in the lower-left zero block of the inverse (0-based)
    tampered = A.with_entry(3, 0, A[3, 0] + 1)
    rep = gamma_membership(tampered.inverse())
    assert not rep.in_gamma1
    assert rep.first_violation == ("gamma1", 3, 0)


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


def test_phase_point_json(worked_point):
    obj = worked_point.to_json_obj()
    assert obj == {"n": 2, "z": ["2", "3"], "Q": ["1/2", "1/5"]}
    assert PhasePoint.from_json_obj(obj) == worked_point
    xf = worked_point.to_float()
    assert xf.mode == "float"
    assert PhasePoint.from_json_obj(xf.to_json_obj()) == xf
