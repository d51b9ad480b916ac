import random

import pytest

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
