import random

import pytest

from toda_bn import dynamics as dy
from toda_bn import verify
from toda_bn.errors import DegeneratePointError
from toda_bn.verify import VerifySuiteConfig, random_point, sample_generic


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


def flow_conservation(seed):
    """The flow-conservation identity as `verify --mode float --seed seed` runs it."""
    index = [name for name, _, _ in verify.IDENTITY_CHECKS].index("flow-conservation")
    check = verify.IDENTITY_CHECKS[index][2]
    return check(VerifySuiteConfig(n_max=4, trials=5, seed=seed, mode="float"),
                 verify.identity_rng(seed, index))


def test_flow_conservation_halves_h_where_rk4_truncation_exceeds_the_bound():
    # drift 1.41e-8 at h = 1e-3; one halving cuts it about 16x
    result = flow_conservation(706265967)
    assert result.passed, (result.counterexample, result.details)
    assert result.details["h"] == 5e-4
    assert result.details["drift_h"] <= 1e-8
    assert result.details["drift_h_half"] * 8 <= result.details["drift_h"]
    assert "h" not in flow_conservation(7).details


def test_flow_conservation_still_rejects_a_second_order_step(monkeypatch):
    # a midpoint step in place of RK4: its drift shrinks only 4x a halving,
    # so three halvings do not make it pass
    def midpoint_kernel(n):
        def step(*s):
            state, h = s[:-1], s[-1]
            k1 = dy._rates(n, state[:n], state[n:])
            mid = [v + 0.5 * h * k for v, k in zip(state, k1)]
            k2 = dy._rates(n, mid[:n], mid[n:])
            return tuple(v + h * k for v, k in zip(state, k2))
        return step

    monkeypatch.setattr(dy, "_rk4_kernel", midpoint_kernel)
    for seed in (7, 706265967, 11):
        result = flow_conservation(seed)
        assert not result.passed
        assert result.counterexample["which"] in ("drift bound", "order check")
