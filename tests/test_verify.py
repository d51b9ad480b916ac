import math
import random
from fractions import Fraction

import pytest
from conftest import run_identity

from toda_bn import conserved as cv
from toda_bn import dynamics as dy
from toda_bn import verify
from toda_bn.errors import DegeneratePointError
from toda_bn.lax import build_lax
from toda_bn.linalg import SquareMatrix, conjugate
from toda_bn.verify import VerifySuiteConfig, random_point, random_rational, sample_generic


def test_sample_generic_returns_probe_value_and_redraws():
    draws = iter(range(10))

    def probe(k):
        if k < 3:
            raise DegeneratePointError("too small")
        return 10 * k

    assert sample_generic(lambda: next(draws), probe) == (3, 30, 3)


def test_sample_generic_gives_up():
    def probe(_):
        raise DegeneratePointError("never")

    rng = random.Random(1)
    with pytest.raises(DegeneratePointError):
        sample_generic(lambda: random_point(1, rng), probe)


def test_check_splitting_reports_the_trials_it_runs(monkeypatch):
    # each trial draws one random matrix; --trials 5 runs 5 // 2 a rank
    draws, draw = [], verify.random_matrix

    def counted(d, rng):
        draws.append(d)
        return draw(d, rng)

    monkeypatch.setattr(verify, "random_matrix", counted)
    result = verify.check_splitting(VerifySuiteConfig(n_max=4, trials=5), random.Random(7))
    assert result.passed
    assert result.trials == len(draws) == 8


def test_ideal_generator_sweep_to_n12_stays_under_half_its_bound(monkeypatch):
    # float verify --n-max 12 --trials 1 runs the identity at every rank;
    # each |F_i - e_i| it checks, in units of u e_i, is recorded and stays
    # under half the bound 16 n
    ratios, generator = [], cv.ideal_generator

    def recorded(i, x, eps):
        v = generator(i, x, eps)
        vals = [math.exp(e) for e in eps] + [math.exp(-e) for e in eps]
        ratios.append((x.n, abs(v) / (2.0 ** -53 * cv.elementary_symmetric(i, vals))))
        return v

    monkeypatch.setattr(verify.cv, "ideal_generator", recorded)
    index = [name for name, _, _ in verify.IDENTITY_CHECKS].index(
        "ideal-generator-at-exponentials")
    result = verify.IDENTITY_CHECKS[index][2](
        VerifySuiteConfig(n_max=12, trials=1, mode="float"), verify.identity_rng(7, index))
    assert result.passed, (result.counterexample, result.details)
    assert {n for n, _ in ratios} == set(range(1, 13))
    assert all(r <= 16 * n / 2 for n, r in ratios), max(ratios, key=lambda p: p[1] / p[0])


def test_flow_conservation_halves_h_where_rk4_truncation_exceeds_the_bound():
    # drift 1.41e-8 at h = 1e-3; one halving cuts it about 16x
    result = run_identity("flow-conservation", 706265967)
    assert result.passed, (result.counterexample, result.details)
    assert result.details["h"] == 5e-4
    assert result.details["drift_h"] <= 1e-8
    assert result.details["drift_h_half"] * 8 <= result.details["drift_h"]
    assert "h" not in run_identity("flow-conservation").details


def test_flow_conservation_still_rejects_a_second_order_step(monkeypatch, fresh_kernels):
    # a midpoint step in place of RK4, traced into the compiled loops: its
    # drift shrinks only 4x a halving, so three halvings do not make it pass
    def midpoint_step(n, state, h):
        k1 = dy._rates(n, state[:n], state[n:])
        mid = [v + 0.5 * h * k for v, k in zip(state, k1)]
        k2 = dy._rates(n, mid[:n], mid[n:])
        return tuple(v + h * k for v, k in zip(state, k2))

    monkeypatch.setattr(dy, "_rk4_step", midpoint_step)
    for seed in (7, 706265967, 11):
        result = run_identity("flow-conservation", seed)
        assert not result.passed
        assert result.counterexample["which"] in ("drift bound", "order check")


# -- the exact builders against the copy-per-entry ones they replaced ----------


def with_entry_alg_plus(n, rng):
    m = SquareMatrix.zero(2 * n)
    for i in range(n):
        for j in range(n):
            if j >= i:
                m = m.with_entry(i, j, random_rational(rng))
            if j > i:
                m = m.with_entry(n + i, n + j, random_rational(rng))
            m = m.with_entry(i, n + j, random_rational(rng))
    return m


def with_entry_g_plus(n, rng):
    m = SquareMatrix.identity(2 * n)
    for i in range(n):
        m = m.with_entry(i, i, random_rational(rng))
        for j in range(n):
            if j > i:
                m = m.with_entry(i, j, random_rational(rng))
                m = m.with_entry(n + i, n + j, random_rational(rng))
            m = m.with_entry(i, n + j, random_rational(rng))
    return m


@pytest.mark.parametrize("seed", range(20))
def test_row_built_samplers_equal_the_with_entry_builders(seed):
    for n in range(1, 5):
        for built, reference in ((verify.random_alg_plus, with_entry_alg_plus),
                                 (verify.random_g_plus, with_entry_g_plus)):
            a, b = random.Random(seed), random.Random(seed)
            got = built(n, a)
            assert got == reference(n, b)
            assert all(type(v) is Fraction for row in got.rows for v in row)
            assert a.getstate() == b.getstate()  # the same draws, in the same order


def test_unit_entry_probes_equal_the_with_entry_builds():
    d = 6
    for cells in (((4, 1),), ((0, 2), (5, 3)), ((2, 2),)):
        m = SquareMatrix.zero(d)
        for i, j in cells:
            m = m.with_entry(i, j, Fraction(1))
        assert verify._unit_entries(d, *cells) == m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_by_transposes_equals_the_dense_route(rng, n):
    # adjoint-invariance takes g L g^{-1} as conjugate(g^T, L^T)^T
    for _ in range(5):
        L = build_lax(random_point(n, rng))
        for g in (verify.random_g_plus(n, rng), verify.random_g_minus(n, rng)):
            assert conjugate(g.transpose(), L.transpose()).transpose() == g @ L @ g.inverse()
