import math
from fractions import Fraction

import pytest

from toda_bn import (
    CanonicalPoint,
    ModeError,
    OutOfChartError,
    PhasePoint,
    SquareMatrix,
    StepBlowupError,
    ZeroBaseError,
    build_lax,
    chart_brackets,
    exact_flow,
    flow_conjugations,
    from_phase,
    hamilton_rhs,
    hamiltonian,
    hamiltonian_canonical,
    integrate,
    lax_rhs,
    poisson_structure,
    rk4_endpoint,
    to_phase,
)
from toda_bn import f_poly
from toda_bn.dynamics import step_count
from toda_bn.lax import evaluate_matrix, lax_symbolic
from toda_bn.verify import random_canonical, random_matrix, random_point


def test_lax_rhs_traceless(rng):
    for _ in range(5):
        assert random_matrix(4, rng).commutator(random_matrix(4, rng)).trace() == 0
        assert lax_rhs(build_lax(random_point(2, rng))).trace() == 0


def test_lax_rhs_n1_hand_product():
    x = PhasePoint(1, (Fraction(2),), (Fraction(1, 3),))
    a = (1 - x.Q[0]) * x.z[0]
    d = 1 / x.z[0]
    expected = SquareMatrix([[x.Q[0], 0], [-x.Q[0] * (a - d), -x.Q[0]]])
    assert lax_rhs(build_lax(x)) == expected


def test_hamilton_rhs_n1_values():
    x = PhasePoint(1, (Fraction(2),), (Fraction(1, 3),))
    dQ, dz = hamilton_rhs(x)
    assert dz == (Fraction(4, 3),)
    # Q_1' = Q_1 ((1-Q_1) z_1 - 1/z_1); the boundary term 1/z_1 is present
    assert dQ == (Fraction(5, 18),)


def test_hamilton_rhs_q_zero_is_fixed(rng):
    n = 3
    x = PhasePoint(n, tuple(Fraction(k + 2) for k in range(n)), (Fraction(0),) * n)
    dQ, dz = hamilton_rhs(x)
    assert dQ == (0,) * n and dz == (0,) * n


def test_exact_lax_hamilton_equivalence(rng):
    for n in (1, 2, 3):
        sym = lax_symbolic(n)
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        partials = {v: [[e.partial_derivative(v) for e in row] for row in sym]
                    for v in names}
        for _ in range(8):
            x = random_point(n, rng)
            dQ, dz = hamilton_rhs(x)
            rates = dict(zip(names, list(dQ) + list(dz)))
            total = SquareMatrix.zero(2 * n)
            for v in names:
                total = total + rates[v] * evaluate_matrix(partials[v], x)
            assert total == lax_rhs(build_lax(x))


def test_conserved_directional_derivative_is_zero(rng):
    """d/dt F_i = sum_a dF_i/du_a u_a' vanishes exactly."""
    for n in (1, 2, 3):
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        for i in range(1, 2 * n + 1):
            p = f_poly(n, i)
            grads = [p.partial_derivative(v) for v in names]
            x = random_point(n, rng)
            dQ, dz = hamilton_rhs(x)
            rates = list(dQ) + list(dz)
            total = sum(g.evaluate(x) * r for g, r in zip(grads, rates))
            assert total == 0


def test_poisson_structure_antisymmetric(rng):
    x = random_point(3, rng)
    pi = poisson_structure(x)
    assert pi + pi.transpose() == SquareMatrix.zero(6)


def test_bracket_with_hamiltonian_reproduces_rhs(rng):
    for n in (1, 2, 3):
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        grads = [f_poly(n, 1).partial_derivative(v) for v in names]
        x = random_point(n, rng)
        pi = poisson_structure(x)
        gh = [g.evaluate(x) for g in grads]
        udot = [sum(pi[a, b] * gh[b] for b in range(2 * n)) for a in range(2 * n)]
        dQ, dz = hamilton_rhs(x)
        assert tuple(udot[:n]) == dQ
        assert tuple(udot[n:]) == dz


def test_jacobi_identity_symbolic():
    from toda_bn.verify import _poisson_symbolic
    from toda_bn.laurent import LaurentPoly

    for n in (1, 2):
        pi = _poisson_symbolic(n)
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        d = 2 * n
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    acc = LaurentPoly.zero(n)
                    for (u, v, w) in ((a, b, c), (b, c, a), (c, a, b)):
                        for e in range(d):
                            acc = acc + pi[u][e] * pi[v][w].partial_derivative(names[e])
                    assert acc.is_zero()


def test_canonical_chart_spot_values():
    c = CanonicalPoint((0.0, 0.0), (0.0, 0.0))
    x = to_phase(c)
    assert abs(x.Q[0] + 1) < 1e-15 and abs(x.Q[1] + 1) < 1e-15
    assert abs(x.z[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(x.z[1] - 1.0) < 1e-15
    spot = 4 + 2 * math.sqrt(2)
    assert abs(hamiltonian(x) - spot) < 1e-12
    assert abs(hamiltonian_canonical(c) - spot) < 1e-12


def test_canonical_roundtrip(rng):
    for n in (1, 2, 4):
        for _ in range(5):
            c = random_canonical(n, rng)
            back = from_phase(to_phase(c))
            assert max(abs(a - b) for a, b in zip(back.q, c.q)) < 1e-12
            assert max(abs(a - b) for a, b in zip(back.p, c.p)) < 1e-12


def test_out_of_chart():
    with pytest.raises(OutOfChartError):
        from_phase(PhasePoint(1, (2.0,), (0.5,)))
    with pytest.raises(OutOfChartError):
        from_phase(PhasePoint(1, (-2.0,), (-0.5,)))


def test_hamiltonian_is_trace_and_f1(worked_point, rng):
    assert hamiltonian(worked_point) == Fraction(61, 15)
    for n in (1, 2, 3):
        x = random_point(n, rng)
        assert hamiltonian(x) == build_lax(x).trace()


def test_canonical_hamiltonian_matches_pullback(rng):
    for _ in range(5):
        c = random_canonical(3, rng)
        assert abs(hamiltonian_canonical(c) - hamiltonian(to_phase(c))) < 1e-12


def test_chart_brackets_match_structure_table(rng):
    c = random_canonical(3, rng)
    x = to_phase(c)
    QQ, Qz, zz = chart_brackets(c)
    pi = poisson_structure(x)
    for i in range(3):
        for j in range(3):
            assert abs(QQ[i][j]) < 1e-10
            assert abs(zz[i][j]) < 1e-10
            assert abs(Qz[i][j] - pi[i, 3 + j]) < 1e-10


def test_integrate_t_zero(rng):
    x = to_phase(random_canonical(2, rng))
    traj = integrate(x, T=0.0, h=1e-3)
    assert traj.times == (0.0,)
    assert traj.states == (x,)
    assert traj.max_drift == 0.0


def test_integrate_q_zero_constant():
    x = PhasePoint(2, (1.5, 0.5), (0.0, 0.0))
    traj = integrate(x, T=0.05, h=1e-3)
    assert all(s == x for s in traj.states)


def test_integrate_requires_float(worked_point):
    with pytest.raises(ModeError):
        integrate(worked_point, T=0.1)


def test_step_blowup():
    x = PhasePoint(1, (1e11,), (1.0,))
    with pytest.raises(StepBlowupError):
        integrate(x, T=0.1, h=1e-3)


def test_exact_flow_t_zero(rng):
    x = to_phase(random_canonical(2, rng))
    y = exact_flow(x, 0.0)
    assert max(abs(a - b) for a, b in zip(y.z + y.Q, x.z + x.Q)) < 1e-9


@pytest.mark.parametrize("n", range(2, 7))
def test_exact_flow_routes_and_rk4(rng, n):
    x = to_phase(random_canonical(n, rng))
    la, lb = flow_conjugations(x, 0.4)
    assert max(abs(la[i, j] - lb[i, j]) for i in range(2 * n) for j in range(2 * n)) < 1e-9
    xe = exact_flow(x, 0.4)
    xr = rk4_endpoint(x, 0.4, 1e-4)
    assert max(abs(a - b) for a, b in zip(xe.z + xe.Q, xr.z + xr.Q)) < 1e-6


def test_rk4_fourth_order(rng):
    x = to_phase(random_canonical(3, rng, scale=1.2))
    t1 = integrate(x, T=0.5, h=2e-3)
    t2 = integrate(x, T=0.5, h=1e-3)
    if t1.max_drift > 1e-12:  # above the evaluation noise floor
        assert t2.max_drift * 8 <= t1.max_drift


@pytest.mark.parametrize("n", [2, 3])
def test_rk4_endpoint_is_integrate_endpoint(rng, n):
    x = to_phase(random_canonical(n, rng))
    for T, h in ((0.0, 1e-3), (0.05, 1e-3), (0.099, 3e-3)):
        assert rk4_endpoint(x, T, h) == integrate(x, T, h).endpoint


def test_flow_argument_checks(worked_point, rng):
    x = to_phase(random_canonical(2, rng))
    for flow in (rk4_endpoint, integrate):
        with pytest.raises(ModeError):
            flow(worked_point, 0.0, 1e-3)
        for h in (0.0, -1e-3):
            with pytest.raises(ValueError):
                flow(x, 0.1, h)


def test_step_count():
    assert step_count(0.0, 1e-3) == 0
    assert step_count(0.9, 0.3) == 3
    assert step_count(0.3, 1e-4) == 3000  # 0.3 / 1e-4 is 2999.9999999999995
    assert step_count(32 * 2.0 ** -10, 2.0 ** -10) == 32


@pytest.mark.parametrize("T,h", [
    (1.0, 0.3), (0.1, 3e-3), (-0.1, 1e-3), (-1e-3, 1e-3), (math.inf, 1e-3),
    (math.nan, 1e-3), (0.1, math.inf), (0.1, math.nan), (0.0, 0.0), (0.1, -1e-3),
    (1e300, 1e-300),
], ids=["not-a-multiple", "not-a-multiple-small", "T-negative", "T-minus-one-step",
        "T-inf", "T-nan", "h-inf", "h-nan", "h-zero", "h-negative", "T/h-inf"])
def test_flow_rejects_T_h_that_do_not_end_at_T(rng, T, h):
    x = to_phase(random_canonical(1, rng))
    for flow in (rk4_endpoint, integrate):
        with pytest.raises(ValueError):
            flow(x, T, h)
    with pytest.raises(ValueError):
        step_count(T, h)


def test_step_count_messages():
    # simulate passes its flag names; see test_cli.test_simulate_T_h_messages
    with pytest.raises(ValueError, match=r"^T 1\.0 is not a whole number of h 0\.3 steps$"):
        step_count(1.0, 0.3)


def test_rk4_stage_with_zero_z_raises():
    # n = 1: dz/dt = Q z^2, so the second stage is z + (h/2) Q z^2 = 0 exactly
    x = PhasePoint(1, (1.0,), (-4.0,))
    for flow in (rk4_endpoint, integrate):
        with pytest.raises(ZeroBaseError):
            flow(x, 0.5, 0.5)


@pytest.mark.parametrize("z", [1e-320, -1e-13, 1e13, math.inf, math.nan],
                         ids=["subnormal", "small", "large", "inf", "nan"])
def test_x0_outside_the_window_raises_before_any_step(z):
    x = PhasePoint(1, (z,), (0.5,))
    for flow in (rk4_endpoint, integrate):
        for T in (0.0, 1e-3):
            with pytest.raises(StepBlowupError, match=r"at t=0\.0$"):
                flow(x, T, 1e-3)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_trajectory_states_are_valid_points(rng, n):
    x = to_phase(random_canonical(n, rng))
    states = integrate(x, T=0.02, h=1e-3).states + (rk4_endpoint(x, 0.02, 1e-3),)
    for s in states:
        assert type(s.z) is tuple and type(s.Q) is tuple
        assert all(type(v) is float for v in s.z + s.Q)
        again = PhasePoint(s.n, s.z, s.Q)
        assert again == s and again.mode == s.mode == "float"
