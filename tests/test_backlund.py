from fractions import Fraction

import pytest

from toda_bn import (
    DegeneratePointError,
    PhasePoint,
    backlund_conjugate,
    backlund_map,
    build_factors,
    conserved_values,
    flow_commutation_check,
    hamiltonian,
    iterate,
    kr_factors,
    membership,
    to_phase,
)
from toda_bn.conserved import _conserved_values_exact
from toda_bn.lax import _build_lax_exact
from toda_bn.verify import printed_backlund_n2, random_canonical, random_point, random_rational


def test_kr_worked_point(worked_point):
    fac = kr_factors(worked_point)
    assert fac.M[1] == Fraction(2, 3)
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


def test_iterate(worked_point):
    assert iterate(worked_point, 0) == [worked_point]
    seq = iterate(worked_point, 10)
    assert len(seq) == 11
    f0 = conserved_values(worked_point)
    assert all(conserved_values(s) == f0 for s in seq)


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
