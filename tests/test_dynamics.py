import ast
import functools
import hashlib
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from toda_bn import dynamics, f_poly
from toda_bn.conserved import _chain_sums
from toda_bn.dynamics import _rk4_loop_kernel, _trajectory_kernel, lax_along_flow, step_count
from toda_bn.lax import evaluate_matrix, lax_symbolic
from toda_bn.verify import (VerifySuiteConfig, check_lax_hamilton, identity_rng,
                            random_canonical, random_matrix, random_point)

from conftest import trace


def diagonal_sum(m):
    return sum(m[i, i] for i in range(m.dim))


def test_lax_rhs_traceless(rng):
    for _ in range(5):
        assert diagonal_sum(random_matrix(4, rng).commutator(random_matrix(4, rng))) == 0
        assert diagonal_sum(lax_rhs(build_lax(random_point(2, rng)))) == 0


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


def symbolic_lax_velocity(x):
    """dL/dt by the chain rule through the symbolic partials of L."""
    n = x.n
    names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
    dQ, dz = hamilton_rhs(x)
    total = SquareMatrix.zero(2 * n)
    for v, rate in zip(names, list(dQ) + list(dz)):
        partial = [[e.partial_derivative(v) for e in row] for row in lax_symbolic(n)]
        total = total + rate * evaluate_matrix(partial, x)
    return total


def test_exact_lax_hamilton_equivalence(rng):
    for n in (1, 2, 3):
        for _ in range(8):
            x = random_point(n, rng)
            assert symbolic_lax_velocity(x) == lax_rhs(build_lax(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_pass_equals_the_symbolic_chain_rule(rng, n):
    for _ in range(3):
        x = random_point(n, rng)
        L, dL = lax_along_flow(x)
        assert L == build_lax(x)
        assert dL == symbolic_lax_velocity(x)
        assert all(type(v) is Fraction for row in (*L.rows, *dL.rows) for v in row)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dual_pass_solves_the_lax_equation_at_higher_ranks(rng, n):
    # beyond the ranks where the tests expand L's partials symbolically
    for _ in range(2):
        x = random_point(n, rng)
        L, dL = lax_along_flow(x)
        assert L == build_lax(x)
        assert dL == lax_rhs(L)


@pytest.mark.parametrize("which", ["dQ", "dz"])
def test_lax_hamilton_check_fails_with_one_rate_doubled(monkeypatch, which):
    rates = hamilton_rhs

    def doubled(x):
        dQ, dz = rates(x)
        if which == "dQ":
            return (2 * dQ[0], *dQ[1:]), dz
        return dQ, (*dz[:-1], 2 * dz[-1])

    cfg = VerifySuiteConfig(n_max=3, trials=2, mode="rational")
    assert check_lax_hamilton(cfg, identity_rng(7, 0)).passed
    monkeypatch.setattr(dynamics, "hamilton_rhs", doubled)
    result = check_lax_hamilton(cfg, identity_rng(7, 0))
    assert not result.passed
    assert result.counterexample["n"] == 1 and "point" in result.counterexample


def test_dual_follows_each_rule():
    # f(x) = (x^2 - 3) / (2 - x) + 1/x - x, so
    # f'(x) = (2x (2 - x) + x^2 - 3) / (2 - x)^2 - 1/x^2 - 1
    x0 = Fraction(5, 3)
    x = dynamics._Dual(x0, Fraction(1))
    f = (x * x - 3) / (2 - x) + 1 / x - x
    assert f.value == (x0 * x0 - 3) / (2 - x0) + 1 / x0 - x0
    assert f.tangent == ((2 * x0 * (2 - x0) + x0 * x0 - 3) / (2 - x0) ** 2
                         - 1 / x0 ** 2 - 1)
    g = -(x / x) + 3 * x - x * 2
    assert (g.value, g.tangent) == (x0 - 1, Fraction(1))


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
            total = sum(g.evaluate(x.z, x.Q) * r for g, r in zip(grads, rates))
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
        gh = [g.evaluate(x.z, x.Q) for g in grads]
        udot = [sum(pi[a, b] * gh[b] for b in range(2 * n)) for a in range(2 * n)]
        dQ, dz = hamilton_rhs(x)
        assert tuple(udot[:n]) == dQ
        assert tuple(udot[n:]) == dz


def _poisson_symbolic(n):
    """dynamics' Pi builder over the Laurent variables of rank n."""
    from toda_bn.laurent import LaurentPoly

    return dynamics._poisson_rows(n, [LaurentPoly.z_var(n, i) for i in range(1, n + 1)],
                                  [LaurentPoly.q_var(n, i) for i in range(1, n + 1)],
                                  LaurentPoly.zero(n))


def test_jacobi_identity_symbolic():
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_poisson_rows_evaluate_to_poisson_structure(rng, n):
    pi = _poisson_symbolic(n)
    for _ in range(10):
        x = random_point(n, rng)
        assert SquareMatrix([[p.evaluate(x.z, x.Q) for p in row] for row in pi]) \
            == poisson_structure(x)
        xf = x.to_float()
        assert poisson_structure(xf).rows == tuple(
            tuple(p.evaluate(xf.z, xf.Q) for p in row) for row in pi)


@pytest.mark.parametrize("value, message", [
    (True, "boolean is not a scalar: True"), ("1", "unsupported scalar type: str"),
    (math.nan, "coordinates must be finite"), (math.inf, "coordinates must be finite")])
def test_canonical_point_takes_only_finite_numbers(value, message):
    with pytest.raises((ModeError, ValueError), match=f"^{message}$"):
        CanonicalPoint((0.0, value), (0.0, 0.0))
    assert CanonicalPoint((1, Fraction(1, 2)), (0.0, 0.0)).q == (1.0, 0.5)


def test_canonical_chart_spot_values():
    c = CanonicalPoint((0, 0.0), (0.0, -0.0))
    assert repr(c) == "CanonicalPoint(q=(0.0, 0.0), p=(0.0, -0.0))"
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
        assert hamiltonian(x) == diagonal_sum(build_lax(x))


def test_canonical_hamiltonian_matches_pullback(rng):
    for _ in range(5):
        c = random_canonical(3, rng)
        assert abs(hamiltonian_canonical(c) - hamiltonian(to_phase(c))) < 1e-12


def _in_order(values):
    acc = 0
    for v in values:
        acc += v
    return acc


# canonical points where an in-order float sum and a compensated one (as
# sum() adds floats from Python 3.12 on) round differently
@pytest.mark.parametrize("q, p", [
    ((0.31, -0.52, 0.17), (0.12, -0.43, 0.64)),
    ((0.44, -0.19, 0.27, -0.63, 0.08, 0.35, -0.41, 0.16),
     (0.22, -0.31, 0.57, 0.09, -0.46, 0.13, -0.05, 0.38)),
])
def test_hamiltonians_add_in_order_on_every_version(q, p):
    c = CanonicalPoint(q, p)
    x = to_phase(c)
    E = dynamics._chart_exponentials(c.q)
    terms = [math.cosh(c.p[i - 1]) * math.sqrt(1 + E[i - 1]) * math.sqrt(1 + E[i])
             for i in range(1, c.n + 1)]
    Qb = (0.0,) + x.Q
    up = [(1 - x.Q[i]) * x.z[i] for i in range(x.n)]
    down = [(1 - Qb[i]) / x.z[i] for i in range(x.n)]
    in_order = (2 * _in_order(terms), _in_order(up) + _in_order(down))
    assert (hamiltonian_canonical(c).hex(), hamiltonian(x).hex()) == \
        tuple(v.hex() for v in in_order)
    assert in_order != (2 * math.fsum(terms), math.fsum(up) + math.fsum(down))


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


def test_points_and_trajectories_are_frozen(worked_point, rng):
    c = random_canonical(2, rng)
    traj = integrate(to_phase(c), T=2e-3, h=1e-3)
    q, states = c.q, traj.states
    assert traj.states is states  # built on first read, then kept
    for record, field in ((worked_point, "z"), (c, "q"), (traj, "values"), (traj, "states")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, ())
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert (worked_point.z, c.q, traj.states) == ((Fraction(2), Fraction(3)), q, states)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_drift_after_one_step_is_the_route_gap(rng, n):
    # one RK4 step of 2^-20 errs by far less than 1e-12, so this bounds the gap
    # between the chain-sum pass and the reference route (path formula for
    # n <= 3, char_poly above), on both sides of the switch; the largest
    # measured over 30 points per rank was 1.9e-14 at n = 6 and 3.2e-14 at n = 8
    x = to_phase(random_canonical(n, rng))
    h = 2.0 ** -20
    traj = integrate(x, T=h, h=h)
    assert len(traj.drifts) == 2 and traj.drifts[0] == 0.0
    assert traj.max_drift <= 1e-12


def test_drift_at_n8_over_unit_time(rng):
    x = to_phase(random_canonical(8, rng))
    assert integrate(x, T=1.0, h=2.0 ** -10).max_drift <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_rk4_endpoint_is_integrate_endpoint(rng, n):
    x = to_phase(random_canonical(n, rng))
    for T, h in ((0.0, 1e-3), (0.05, 1e-3), (0.099, 3e-3)):
        assert rk4_endpoint(x, T, h) == integrate(x, T, h).states[-1]


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
    (1e300, 1e-300), (1e17, 3.0), (2.0 ** 52, 1.0), (1e-3, 1e-308),
], ids=["not-a-multiple", "not-a-multiple-small", "T-negative", "T-minus-one-step",
        "T-inf", "T-nan", "h-inf", "h-nan", "h-zero", "h-negative", "T/h-inf",
        "T/h-whole-past-2^52", "T/h-2^52", "T/h-1e305"])
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
    # 1e17 / 3 rounds to a whole float, which the whole-number test cannot reject
    with pytest.raises(ValueError, match=r"^T 1e\+17 is 3\.3333333333333332e\+16 steps of h 3\.0; "
                                         r"the count must be below 2\*\*52$"):
        step_count(1e17, 3.0)
    assert step_count(2.0 ** 52 - 1, 1.0) == 2 ** 52 - 1


def test_rk4_stage_with_zero_z_raises():
    # n = 1: dz/dt = Q z^2, so the second stage is z + (h/2) Q z^2 = 0 exactly
    x = PhasePoint(1, (1.0,), (-4.0,))
    for flow in (rk4_endpoint, integrate):
        with pytest.raises(ZeroBaseError):
            flow(x, 0.5, 0.5)


@pytest.mark.parametrize("z", [1e-320, -1e-13, 1e13, math.inf, math.nan],
                         ids=["subnormal", "small", "large", "inf", "nan"])
def test_x0_outside_the_window_raises_before_any_step(z):
    # _trusted, as the constructor refuses the inf and nan points
    x = PhasePoint._trusted(1, (z,), (0.5,))
    for flow in (rk4_endpoint, integrate):
        for T in (0.0, 1e-3):
            with pytest.raises(StepBlowupError) as exc:
                flow(x, T, 1e-3)
            assert str(exc.value) == f"|z_1| = {abs(z)!r} left [1e-12, 1e+12] at t=0.0"


@pytest.mark.parametrize("n", [1, 3, 7])
def test_trajectory_states_are_valid_points(rng, n):
    x = to_phase(random_canonical(n, rng))
    states = integrate(x, T=0.02, h=1e-3).states + (rk4_endpoint(x, 0.02, 1e-3),)
    for s in states:
        assert type(s.z) is tuple and type(s.Q) is tuple
        assert all(type(v) is float for v in s.z + s.Q)
        again = PhasePoint(s.n, s.z, s.Q)
        assert again == s and again.mode == s.mode == "float"


# -- the compiled kernels against an interpreted reference ----------------------
#
# A plain loop over hamilton_rhs's formulas and the textbook RK4 step, in the
# grouping the kernels promise to keep: they must reproduce it bit for bit.


def _reference_rates(n, z, Q, zero):
    Qb = (zero, *Q)  # Q_0 = 0
    dQ = []
    dz = []
    for i in range(1, n + 1):
        if i < n:
            rate = (-(1 - Qb[i - 1]) / z[i - 1]
                    + (1 - Qb[i]) * (z[i - 1] + 1 / z[i])
                    - (1 - Qb[i + 1]) * z[i])
        else:
            rate = (1 - Qb[n]) * z[n - 1] - (1 - Qb[n - 1]) / z[n - 1]
        dQ.append(Qb[i] * rate)
    for i in range(1, n + 1):
        right = Qb[i] * ((z[i - 1] + 1 / z[i]) if i < n else z[n - 1])
        left = zero
        if i >= 2:
            left = Qb[i - 1] * (z[i - 2] + 1 / z[i - 1])
        dz.append(z[i - 1] * (right - left))
    return tuple(dQ), tuple(dz)


def _reference_rhs_vector(n, state):
    z, Q = state[:n], state[n:]
    if any(v == 0 for v in z):
        raise ZeroBaseError("all z_i must be nonzero")
    dQ, dz = _reference_rates(n, z, Q, 0.0)
    return dz + dQ


def _reference_rk4_step(n, state, h):
    half = 0.5 * h
    k1 = _reference_rhs_vector(n, state)
    k2 = _reference_rhs_vector(n, tuple([s + half * k for s, k in zip(state, k1)]))
    k3 = _reference_rhs_vector(n, tuple([s + half * k for s, k in zip(state, k2)]))
    k4 = _reference_rhs_vector(n, tuple([s + h * k for s, k in zip(state, k3)]))
    sixth = h / 6.0
    return tuple([s + sixth * (a + 2 * b + 2 * c + d)
                  for s, a, b, c, d in zip(state, k1, k2, k3, k4)])


def _bits(state):
    return tuple("nan" if math.isnan(v) else v.hex() for v in state)


# The RK4 step and the chain-sum pass alone, compiled by trace from the
# functions that _rk4_loop_kernel and _trajectory_kernel trace: the tests
# compare the single-step kernels with interpreted references, and the
# loops with them.

@functools.cache
def _rk4_kernel(n):
    """rk4(z_1..z_n, Q_1..Q_n, h) -> the state after one _rk4_step."""
    return trace("rk4", n, dynamics._rk4_traced(n), "h")


@functools.cache
def _chain_sums_kernel(n):
    """chain_sums(z_1..z_n, Q_1..Q_n) -> F_0..F_2n, the float pass."""
    return trace("chain_sums", n, dynamics._chain_sums_traced(n))


def _steps(step, state, h, count=20):
    """float.hex of the states after each of ``count`` steps, or the exception."""
    out = []
    try:
        for _ in range(count):
            state = step(state, h)
            out.append(_bits(state))
    except Exception as exc:  # the oracle compares the class and message
        out.append((type(exc), str(exc)))
    return out


SPECIAL_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def rk4_cases(draw):
    n = draw(st.integers(1, 12))
    h = draw(st.sampled_from([2.0 ** -10, 1e-3, 1e-4, 0.5]))
    z = draw(st.lists(st.floats(0.2, 5.0) | st.floats(-5.0, -0.2), min_size=n, max_size=n))
    Q = draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n))
    state = z + Q
    for _ in range(draw(st.integers(0, 2))):
        state[draw(st.integers(0, 2 * n - 1))] = draw(st.sampled_from(SPECIAL_FLOATS))
    return n, tuple(state), h


@settings(max_examples=300, deadline=None)
@given(rk4_cases())
def test_rk4_kernel_matches_the_loop_step_bit_for_bit(case):
    n, state, h = case
    expected = _steps(lambda s, h: _reference_rk4_step(n, s, h), state, h)
    assert _steps(lambda s, h: _rk4_kernel(n)(*s, h), state, h) == expected


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_rk4_kernel_matches_the_loop_step_on_the_chart(rng, n):
    x = to_phase(random_canonical(n, rng))
    state = x.z + x.Q
    for h in (2.0 ** -10, 1e-3, 1e-4, 0.5):
        assert _steps(lambda s, h: _rk4_kernel(n)(*s, h), state, h) == \
            _steps(lambda s, h: _reference_rk4_step(n, s, h), state, h)


@pytest.mark.parametrize("n", range(1, 9))
def test_rk4_loop_kernel_equals_steps_of_the_step_kernel(rng, n):
    x = to_phase(random_canonical(n, rng))
    for h, steps in ((1e-3, 0), (1e-3, 1), (2.0 ** -10, 40), (1e-4, 300)):
        state = x.z + x.Q
        for _ in range(steps):
            state = _rk4_kernel(n)(*state, h)
        k, got = _rk4_loop_kernel(n)(*x.z, *x.Q, h, steps)
        assert k == steps and _bits(got) == _bits(state)


@pytest.mark.parametrize("n", range(1, 9))
def test_rk4_endpoint_leaves_the_window_where_integrate_does(rng, n):
    # large chart coordinates and a large step: RK4 leaves the window within
    # a few steps, and the loop kernel must stop at the same step as integrate
    for _ in range(100):
        x = to_phase(random_canonical(n, rng, scale=3.0))
        try:
            integrate(x, T=4.0, h=0.25)
        except StepBlowupError as exc:
            want = str(exc)
            break
        except ZeroBaseError:
            continue
    else:
        pytest.fail("no draw left the window")
    assert not want.endswith("at t=0.0")
    with pytest.raises(StepBlowupError) as got:
        rk4_endpoint(x, 4.0, 0.25)
    assert str(got.value) == want


def _per_step_integrate(x0, T, h):
    """integrate as it ran before _trajectory_kernel: per step, one call of
    the step kernel, the window check, one call of the chain-sum kernel and
    the drift by C-level maps.  Returns (times, states, drifts)."""
    steps, state = dynamics._initial_state(x0, T, h)
    n = x0.n
    f0 = [float(f) for f in dynamics._reference_values(x0)]
    scales = [max(1.0, abs(f)) for f in f0]
    times, states, drifts = [0.0], [state], [0.0]
    for k in range(1, steps + 1):
        state = _rk4_kernel(n)(*state, h)
        dynamics._check_window(n, state, k * h)
        times.append(k * h)
        states.append(state)
        drifts.append(max(map(operator.truediv, map(abs, map(
            operator.sub, _chain_sums_kernel(n)(*state), f0)), scales)))
    return times, states, drifts


def _compiled_integrate(x0, T, h):
    traj = integrate(x0, T, h)
    return traj.times, [y.z + y.Q for y in traj.states], traj.drifts


def _flow_bits(flow, x0, T, h):
    """float.hex of flow's (times, states, drifts), or its exception."""
    try:
        times, states, drifts = flow(x0, T, h)
    except (StepBlowupError, ZeroBaseError) as exc:
        return type(exc), str(exc)
    return _bits(times), [_bits(s) for s in states], _bits(drifts)


@pytest.mark.parametrize("n", range(1, 9))
def test_trajectory_kernel_equals_the_per_step_loop(rng, n):
    for T, h in ((64 * 2.0 ** -10, 2.0 ** -10), (0.0, 1e-3), (0.3, 0.1)):
        x = to_phase(random_canonical(n, rng))
        assert _flow_bits(_compiled_integrate, x, T, h) == _flow_bits(_per_step_integrate, x, T, h)
    # a draw that leaves the window mid-run
    for _ in range(100):
        x = to_phase(random_canonical(n, rng, scale=3.0))
        want = _flow_bits(_per_step_integrate, x, 4.0, 0.25)
        if want[0] is StepBlowupError:
            break
    else:
        pytest.fail("no draw left the window")
    assert not want[1].endswith("at t=0.0")
    assert _flow_bits(_compiled_integrate, x, 4.0, 0.25) == want
    # Q_{n-1} = 0 leaves z_n' = Q_n z_n^2, so the second stage's z_n is
    # 1 + (0.5/2)(-4) = 0.0 exactly
    x = PhasePoint(n, (1.0,) * n, ((0.25,) * (n - 2) + (0.0, -4.0))[-n:])
    want = _flow_bits(_per_step_integrate, x, 0.5, 0.5)
    assert want == (ZeroBaseError, "all z_i must be nonzero")
    assert _flow_bits(_compiled_integrate, x, 0.5, 0.5) == want


def _per_point_integrate(x0, T, h):
    """integrate's (times, states, drifts) as they were built before flat
    storage: the trajectory kernel's state tuples appended to a list, one
    PhasePoint a state after x0 itself, and the times and drifts as
    tuples."""
    steps, state = dynamics._initial_state(x0, T, h)
    n = x0.n
    f0 = [float(f) for f in dynamics._reference_values(x0)]
    scales = [max(1.0, abs(f)) for f in f0]
    kept = []
    k, state = _trajectory_kernel(n)(*state, h, steps, *f0, *scales, kept.append)
    dynamics._check_window(n, state, k * h)
    points = (PhasePoint._trusted(n, s[:n], s[n:-1]) for s in kept)
    return tuple(j * h for j in range(steps + 1)), (x0, *points), (0.0, *(s[-1] for s in kept))


def _view_bits(times, states, drifts):
    """float.hex of a trajectory's views, with the types of each state's parts."""
    return (type(times), _bits(times), type(states),
            [(type(y), y.n, type(y.z), type(y.Q), _bits(y.z), _bits(y.Q)) for y in states],
            type(drifts), _bits(drifts))


@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_trajectory_views_equal_the_per_point_construction(rng, n):
    h = 2.0 ** -10
    # on the Q = 0 manifold, with -0.0 in x0's Q
    frozen = PhasePoint(n, tuple(1.0 + 0.25 * i for i in range(n)),
                        tuple(-0.0 if i % 2 == 0 else 0.0 for i in range(n)))
    for x, T in ((to_phase(random_canonical(n, rng)), 64 * h),
                 (to_phase(random_canonical(n, rng)), 0.0), (frozen, 16 * h)):
        traj = integrate(x, T, h)
        states = traj.states
        assert _view_bits(traj.times, states, traj.drifts) == \
            _view_bits(*_per_point_integrate(x, T, h))
        assert traj.states == states
        assert traj.max_drift == max(traj.drifts)
    assert _bits(states[0].Q) == _bits(frozen.Q)  # -0.0 kept


@pytest.mark.parametrize("n", [1, 3, 8])
def test_trajectory_rows_are_the_states_with_their_drifts(rng, n):
    # one row (z_1..z_n, Q_1..Q_n, drift) a state, x0 first, in simulate's
    # CSV column order; the flat array holds exactly those 2n + 1 floats
    h, steps = 2.0 ** -10, 32
    traj = integrate(to_phase(random_canonical(n, rng)), steps * h, h)
    rows = list(traj.rows())
    assert all(type(row) is tuple for row in rows)
    assert [_bits(row) for row in rows] == \
        [_bits(y.z + y.Q + (d,)) for y, d in zip(traj.states, traj.drifts)]
    assert len(rows) == steps + 1
    assert traj.values.typecode == "d" and len(traj.values) == (2 * n + 1) * (steps + 1)


def test_integrate_retains_2n_plus_1_floats_a_state():
    # a state is its 2n coordinates and its drift, binary64 in one flat
    # array; 16 B a state covers the array's over-allocation
    n, steps, h = 3, 4096, 2.0 ** -10
    x = to_phase(CanonicalPoint((0.31, -0.52, 0.17), (0.12, -0.43, 0.64)))
    integrate(x, T=h, h=h)  # compile the kernel and fill F(0)'s caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(x, T=steps * h, h=h)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.drifts) == steps + 1
    assert retained / (steps + 1) < (2 * n + 1) * 8 + 16


@pytest.mark.parametrize("n", [1, 3, 8])
def test_trajectory_kernel_keeps_each_state_by_one_call(rng, n):
    # one call of keep per state inside the window, with the state's row
    # (z_1..z_n, Q_1..Q_n, drift); the state that leaves the window is not kept
    x = to_phase(random_canonical(n, rng))
    h = 2.0 ** -10
    f0 = [float(f) for f in dynamics._reference_values(x)]
    scales = [max(1.0, abs(f)) for f in f0]
    state, states, drifts = x.z + x.Q, [], []
    for _ in range(5):
        state = _rk4_kernel(n)(*state, h)
        states.append(_bits(state))
        drifts.append(max(map(operator.truediv, map(abs, map(
            operator.sub, _chain_sums_kernel(n)(*state), f0)), scales)))
    calls = []
    k, last = _trajectory_kernel(n)(*x.z, *x.Q, h, 5, *f0, *scales,
                                    lambda *args: calls.append(args))
    assert k == 5 and _bits(last) == states[-1]
    assert all(type(a) is tuple for (a,) in calls)
    assert [_bits(a[:-1]) for (a,) in calls] == states
    assert _bits([a[-1] for (a,) in calls]) == _bits(drifts)
    assert _bits(drifts) == _bits(integrate(x, 5 * h, h).drifts[1:])
    for _ in range(100):
        x = to_phase(random_canonical(n, rng, scale=3.0))
        calls.clear()
        try:
            k, _ = _trajectory_kernel(n)(*x.z, *x.Q, 0.25, 16, *f0, *scales,
                                         lambda *args: calls.append(args))
        except ZeroBaseError:
            continue
        if k < 16:
            break
    else:
        pytest.fail("no draw left the window")
    assert len(calls) == k - 1 and {len(a) for (a,) in calls} <= {2 * n + 1}


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_sources_do_float_arithmetic_only(monkeypatch, n):
    # an int operand sends a float operation down CPython's generic path, so
    # every number a kernel computes with is a float literal; only the loop's
    # range(1, steps + 1) counts in ints
    sources = {}
    define = dynamics._define

    def record(kind, n, params, lines):
        sources[kind] = "\n".join(["def kernel():", *("    " + line for line in lines)])
        return define(kind, n, params, lines)

    monkeypatch.setattr(dynamics, "_define", record)
    _rk4_loop_kernel.__wrapped__(n)
    _trajectory_kernel.__wrapped__(n)
    _rk4_kernel.__wrapped__(n)
    _chain_sums_kernel.__wrapped__(n)
    assert set(sources) == {"rk4_loop", "trajectory", "rk4", "chain_sums"}
    for kind, source in sources.items():
        tree = ast.parse(source)
        counts = {id(v) for loop in ast.walk(tree) if isinstance(loop, ast.For)
                  for v in ast.walk(loop.iter)}
        numbers = [v.value for v in ast.walk(tree) if isinstance(v, ast.Constant)
                   and id(v) not in counts and not isinstance(v.value, str)]
        assert numbers and {type(v) for v in numbers} == {float}, kind


@pytest.mark.parametrize("n", range(1, 13))
def test_kernels_reject_a_zero_z_at_every_position(n):
    for j in range(n):
        for zero in (0.0, -0.0):
            z = [1.5] * n
            z[j] = zero
            drift = [0.0] * (2 * n + 1) + [1.0] * (2 * n + 1)  # F(0) and the scales
            keep = [].append
            for call in (lambda: _rk4_kernel(n)(*z, *([0.25] * n), 1e-3),
                         lambda: _rk4_loop_kernel(n)(*z, *([0.25] * n), 1e-3, 1),
                         lambda: _trajectory_kernel(n)(*z, *([0.25] * n), 1e-3, 1, *drift, keep),
                         lambda: _chain_sums_kernel(n)(*z, *([0.25] * n))):
                with pytest.raises(ZeroBaseError, match=r"^all z_i must be nonzero$"):
                    call()


@pytest.mark.parametrize("n", range(1, 13))
def test_hamilton_rhs_exact_equals_the_loop_rates(rng, n):
    for _ in range(3):
        x = random_point(n, rng)
        dQ, dz = hamilton_rhs(x)
        assert (dQ, dz) == _reference_rates(n, x.z, x.Q, Fraction(0))
        assert all(type(v) is Fraction for v in dQ + dz)


def test_hamilton_rhs_float_equals_the_loop_rates_bit_for_bit(rng):
    for n in range(1, 13):
        x = to_phase(random_canonical(n, rng))
        dQ, dz = hamilton_rhs(x)
        ref_dQ, ref_dz = _reference_rates(n, x.z, x.Q, 0.0)
        assert _bits(dQ + dz) == _bits(ref_dQ + ref_dz)


# -- the compiled chain-sum pass against the interpreted one --------------------
#
# _chain_sums_kernel is traced from conserved._chain_sums, which stays the
# oracle: the kernel must give its floats bit for bit (NaN compared as NaN),
# and raise ZeroBaseError where the pass divides by a zero z_i.


def _pass_bits(n, state):
    try:
        z = state[:n]
        return _bits(_chain_sums(n, z, [1 / v for v in z], state[n:], 1.0, 0.0))
    except ZeroDivisionError:
        return (ZeroBaseError, "all z_i must be nonzero")


def _kernel_bits(n, state):
    try:
        return _bits(_chain_sums_kernel(n)(*state))
    except ZeroBaseError as exc:
        return (ZeroBaseError, str(exc))


@settings(max_examples=300, deadline=None)
@given(rk4_cases())
# F_3 is 0.0 here only because the pass adds its -0.0 chain sum to a 0.0 start
@example((2, (-1e300, 1e300, 0.0, 0.0), 1e-3))
def test_chain_sums_kernel_matches_the_pass_bit_for_bit(case):
    n, state, _ = case  # the step size is unused
    assert _kernel_bits(n, state) == _pass_bits(n, state)


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_chain_sums_kernel_matches_the_pass_on_the_chart(rng, n):
    for _ in range(3):
        x = to_phase(random_canonical(n, rng))
        f = _chain_sums_kernel(n)(*x.z, *x.Q)
        assert len(f) == 2 * n + 1 and all(type(v) is float for v in f)
        assert _bits(f) == _pass_bits(n, x.z + x.Q)


# -- the recorded tapes --------------------------------------------------------
#
# A compiled kernel is the tape of one run of its ring-generic function over
# _Traced inputs.  The digest of repr((tape, outputs)) pins every node and
# its order, so a change to the chain-sum pass, the RK4 step or the units
# and reciprocals they are given that records other nodes fails here.  The
# keys name the single-step kernels above; the tapes are the two that
# _trajectory_kernel traces (_rk4_loop_kernel traces the same RK4 tape).

TAPE_SHA256 = {
    "_chain_sums_kernel": (
        "e5cf6264527f4b88d0ac22c386000fa3924dad59b4781650fb1778c4e9bc0099",
        "eead170808caeeea39fdaee1f532b8c74a06ed44ea65ee5e11e44eaa34cda982",
        "0e3a5e53f08fef1dac8e4c07921f5673c4329872e68c898b3e2583bfca7b85f8",
        "8e189217d764be82e5867bcd6512b7003584ebf57af3518c73fd3c7a12fb7e27",
        "8a7d4011087c83dd6fb592b6d019fa59b2bab952d94957d7ec34aaa0f47a8a08",
        "1edac176af782d035a061c5660045d1f83efa98ea533572f4c6046b030da260f",
        "da100d3dec748dbaae2c639c0155d6641efc39d99c6898e1269a354a589c82d1",
        "6e129739c751c74a9495beb405dcbfa935ed0c195e8cf3193b8bae47ef9a7080",
    ),
    "_rk4_kernel": (
        "c0225d4127e022910998f99256d94cff7bffe4ba3f48fbdf38b94e169766c9a5",
        "0714e01797415a91136c0b2c86772b30a0954d7944a95a864536d772a55cb65f",
        "1add691ef0e4405de1646cce09f87ba67f3323a4ca493dfd94ca4319b9261d5a",
        "750c38398dc44fcd419298f08eb648560f5fb5f06ab864b70e04f6eb7127aac8",
        "2e9de76c0bec16502c600fd16462175680cc2e8e3875d7c67895f907bd044187",
        "c6b3c87bb8a20b8f3a675d5642dbaefa54596cf285855234b33d777a791c01ed",
        "5416b08f23ea035be28b2412403e870ce54b5a6873c609541f77ff8443fa21e5",
        "3c6614e6ca5eeced09492a911ae8d2c0062b45e6a309f3547759b26e1889638b",
    ),
}


def _tape_digest(monkeypatch, kernel: str, n: int) -> str:
    """sha256 of repr((tape, outputs)) of the function that _trajectory_kernel
    traces at rank n for ``kernel``'s tape (the RK4 step's, the one with the
    extra input h, or the chain-sum pass's), recorded as _straight_line
    records it: one input node per name, then the run."""
    traced = {}
    straight_line = dynamics._straight_line

    def record(n, fn, extra, *temp):
        traced["_rk4_kernel" if extra else "_chain_sums_kernel"] = fn, extra
        return straight_line(n, fn, extra, *temp)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_straight_line", record)
        _trajectory_kernel.__wrapped__(n)
    fn, extra = traced[kernel]
    names = [f"z{i}" for i in range(n)] + [f"q{i}" for i in range(n)] + list(extra)
    tape = []
    inputs = [dynamics._Traced.node(tape, (None, name, None)) for name in names]
    out = [dynamics._operand(v) for v in fn(*inputs)]
    return hashlib.sha256(repr((tape, out)).encode()).hexdigest()


@pytest.mark.parametrize("kernel,n", [(k, n) for k in TAPE_SHA256 for n in range(1, 9)])
def test_kernel_tapes_are_pinned(monkeypatch, kernel, n):
    assert _tape_digest(monkeypatch, kernel, n) == TAPE_SHA256[kernel][n - 1]


_AST_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div}


def _grouping_pairs(n, fn, extra, temp="t"):
    """(parsed, expected) ast.dump pairs for every body line and output that
    _straight_line writes for fn: the expected tree is built from the tape
    alone, an input or a node with its own line being a Name and every other
    node its BinOp or UnaryOp, so equal dumps mean that the code groups each
    operation as the tape does."""
    names, body, out = dynamics._straight_line(n, fn, extra, temp)
    tape = []
    inputs = [dynamics._Traced.node(tape, (None, name, None)) for name in names]
    outputs = [dynamics._operand(v) for v in fn(*inputs)]
    assert len(out) == len(outputs)
    lines = [ast.parse(line).body[0] for line in body]
    assert all(isinstance(line, ast.Assign) and len(line.targets) == 1 for line in lines)
    targets = [line.targets[0].id for line in lines]
    own = [int(t[len(temp):]) for t in targets]
    assert targets == [f"{temp}{k}" for k in own] and own == sorted(set(own))

    def tree(v, line=None):
        if type(v) is str:  # a constant, which the code writes as a float literal
            value = float(v)
            literal = ast.Constant(abs(value))
            return ast.UnaryOp(ast.USub(), literal) if math.copysign(1.0, value) < 0 else literal
        op, a, b = tape[v]
        if op is None:
            return ast.Name(a, ast.Load())
        if v in own and v != line:
            return ast.Name(f"{temp}{v}", ast.Load())
        if a is None:
            return ast.UnaryOp(ast.USub(), tree(b))
        return ast.BinOp(tree(a), _AST_OPS[op](), tree(b))

    pairs = [(ast.dump(line.value), ast.dump(tree(k, k))) for line, k in zip(lines, own)]
    pairs += [(ast.dump(ast.parse(text, mode="eval").body), ast.dump(tree(v)))
              for text, v in zip(out, outputs)]
    return pairs


def _hand_tape(z0, z1, q0, q1):
    """Negations, constants (negative ones and ints among them) and right-nested
    ``-`` and ``/``, each result used once so that it is written inline."""
    return (z0 - (z1 - q0), z0 / (z1 / q0), z0 - (z1 + q0), z0 / (z1 * q0),
            (z0 - z1) - (q0 - q1), -(z0 * z1), -(z0 + z1) * 2, -z0 * q1, 1.5 - -z1,
            z0 * -3.0, -(-q0), q1 - z1 / (z0 - 0.5), (z0 + z1) * (q0 - q1) / (z1 - q1),
            2 - (q0 - (q1 - (z0 - z1))), z0 - z0 * z1, q0 / -q1, -(q0 / (z1 - -2.0)))


@pytest.mark.parametrize("tape", ["rk4", "chain_sums", "hand"])
def test_straight_line_groups_every_operation_as_the_tape(tape):
    cases = {"rk4": [(n, dynamics._rk4_traced(n), ("h",), "t") for n in range(1, 9)],
             "chain_sums": [(n, dynamics._chain_sums_traced(n), (), "u")
                            for n in range(1, 9)],
             "hand": [(2, _hand_tape, (), "t")]}[tape]
    for n, fn, extra, temp in cases:
        pairs = _grouping_pairs(n, fn, extra, temp)
        assert pairs and all(got == want for got, want in pairs), n
    if tape == "hand":  # every node of the hand tape is written inline
        assert dynamics._straight_line(2, _hand_tape, ())[1] == []


def test_trace_caps_the_inline_depth_below_the_parser_limit(rng):
    # a left fold of 300 inputs is one chain of single-use nodes; inlined
    # whole it would nest 300 parentheses deep, and the parser allows 200
    n = 150
    fold = trace("fold", n, lambda *s: (functools.reduce(operator.add, s),))
    values = [rng.uniform(-1.0, 1.0) for _ in range(2 * n)]
    assert _bits(fold(*values)) == _bits((functools.reduce(operator.add, values),))


def test_trace_keeps_an_unused_division():
    # the kernels use every node they record, so only a traced function that
    # drops a quotient shows that the quotient is still computed
    kernel = trace("drop", 1, lambda z, q: (1 / z, q)[1:])
    assert kernel(2.0, 0.5) == (0.5,)
    with pytest.raises(ZeroBaseError, match=r"^all z_i must be nonzero$"):
        kernel(0.0, 0.5)


@pytest.mark.parametrize("n", range(1, 9))
def test_integrate_drifts_equal_the_pass_on_the_returned_states(rng, n, monkeypatch,
                                                                fresh_kernels):
    x = to_phase(random_canonical(n, rng))
    traj = integrate(x, T=8 * 2.0 ** -10, h=2.0 ** -10)
    # F(0) as the reference route returns it
    f0 = dynamics._reference_values(x)
    scales = [max(1.0, abs(f)) for f in f0]
    expected = [0.0] + [
        max(abs(a - b) / s for a, b, s in zip(
            _chain_sums(n, y.z, [1 / v for v in y.z], y.Q, 1.0, 0.0), f0, scales))
        for y in traj.states[1:]]
    assert _bits(traj.drifts) == _bits(expected)
    # the loop is given float F(0) entries and scales
    kernel = _trajectory_kernel(n)

    def float_only(*args):
        reference = args[2 * n + 2:-1]
        assert [type(v) for v in reference] == [float] * (4 * n + 2), reference
        return kernel(*args)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_trajectory_kernel", lambda n: float_only)
        assert integrate(x, T=8 * 2.0 ** -10, h=2.0 ** -10).drifts == traj.drifts
    # a NaN and an inf in F(t), made from the state by the traced pass: F_0 is
    # NaN and F_2n inf while z_1 < c, the other way round while z_1 > c.  max
    # keeps whichever of them comes first, so the drift is NaN below c and inf
    # above it
    z1 = [y.z[0] for y in traj.states[1:]]
    c = (min(z1) + max(z1)) / 2

    def nonfinite(n, z, zinv, Q, one, zero):
        f = list(_chain_sums(n, z, zinv, Q, one, zero))
        big = z[0] * 1e308 * 1e308  # inf, as z_1 > 0 on the chart
        signed = (z[0] - c) * 1e308 * 1e308  # -inf below c, inf above
        f[0], f[-1] = f[0] + big + signed, f[-1] + big - signed
        return tuple(f)

    monkeypatch.setattr(dynamics, "_chain_sums", nonfinite)
    _trajectory_kernel.cache_clear()
    drifts = integrate(x, T=8 * 2.0 ** -10, h=2.0 ** -10).drifts
    f0 = [float(f) for f in f0]
    expected = [0.0] + [
        max(abs(a - b) / s for a, b, s in zip(
            nonfinite(n, y.z, [1 / v for v in y.z], y.Q, 1.0, 0.0), f0, scales))
        for y in traj.states[1:]]
    assert _bits(drifts) == _bits(expected)
    assert {math.isnan(d) for d in drifts[1:]} == {True, False}
