import random

import pytest

from toda_bn.errors import DegeneratePointError
from toda_bn.verify import random_point, sample_generic


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
